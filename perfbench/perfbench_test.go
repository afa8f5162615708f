package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// metricLine matches a printed metric: its name, value and unit.
func metricLine(name, unit string) *regexp.Regexp {
	return regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +(\S+) +` + regexp.QuoteMeta(unit) + ` `)
}

func TestTinyRunsPrintEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(config{workload: name, seed: 7, seconds: 1, tiny: true}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("correct=%v failed %d of %d ops:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			for _, d := range endToEnd {
				if !metricLine(d.name, d.unit).MatchString(out.String()) {
					t.Errorf("output lacks %s in %s:\n%s", d.name, d.unit, out.String())
				}
			}
			if p50, tail := res.Metrics["op_p50_ms"].Value, res.Metrics["op_tail_ms"].Value; tail <= p50 {
				t.Errorf("op_tail_ms %v is not above op_p50_ms %v", tail, p50)
			}
		})
	}
}

// TestCorruptReferenceFailsOps damages one reference per workload (an
// expected cycle count, profile digest, census or the flat-merge
// snapshot): the run must report failed ops instead of passing.
func TestCorruptReferenceFailsOps(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(config{workload: name, seed: 7, seconds: 1, tiny: true, corrupt: true}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a corrupted reference went unnoticed:\n%s", out.String())
			}
			m := metricLine("op_fail_ratio", "ratio").FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("no op_fail_ratio line:\n%s", out.String())
			}
			if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
				t.Errorf("op_fail_ratio = %s, want > 0", m[1])
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	var out bytes.Buffer
	res, err := run(config{workload: "profile", seed: 7, seconds: 1, tiny: true, trace: true, spanDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d ops:\n%s", res.Failed, res.Attempted, out.String())
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("JSON holds %d metrics, want the %d layer metrics", len(res.Metrics), len(layerMetrics))
	}
	for _, d := range layerMetrics {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("layer metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's workloads and
// metrics in step with what the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, d := range endToEnd {
		if d.name != "op_fail_ratio" {
			e2e = append(e2e, d)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, layerMetrics)
}
