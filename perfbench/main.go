// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads against the PIBE pipeline, calling its packages
// from outside without changing them, checks every op against a
// reference the timed code did not compute, and prints each end-to-end
// metric by name and unit. With --trace 1 it runs the ops a second time
// as the benchmark's own staged replay under spans and prints the
// per-layer metrics instead. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload measure --seed 1 --seconds 10 --trace 0
//
// METRICS.md records why each workload and metric exists.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	pibe "repro"
	"repro/internal/harden"
	"repro/internal/prof"
	"repro/internal/sweep"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's op schedule is drawn from")
	seconds := flag.Int("seconds", 10, "nominal measuring time in seconds; it fixes the run's op count")
	trace := flag.Int("trace", 0, "1 replays the ops under spans and prints the per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	res, err := run(config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: *spanDir}, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// config selects one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
	// tiny shrinks the run to a few dozen cheap ops; the benchmark's
	// tests and the probes of a traced run use it.
	tiny bool
	// corrupt damages one reference value so that its check must fail
	// (tests only).
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every
// workload. op_fail_ratio is printed but kept out of the JSON metrics:
// it reads 0 on a correct run, and the JSON's attempted and failed
// fields already carry it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"op_fail_ratio", "ratio"},
}

// layerMetrics are the metrics of a traced run. Every traced run's JSON
// holds all of them: the workload measures the layers its own ops
// exercise, and the others come from probes, tiny traced runs of the
// other workloads. METRICS.md names the end-to-end metric each one
// should move.
var layerMetrics = []metricDef{
	{"interp.run_us", "us"},
	{"interp.sim_mcycles_per_s", "Mcycles/s"},
	{"workload.cell_setup_us", "us"},
	{"workload.warmup_share", "ratio"},
	{"cpu.icache_probes_per_op", "count"},
	{"cpu.icache_miss_ratio", "ratio"},
	{"cpu.btb_miss_ratio", "ratio"},
	{"cpu.rsb_miss_ratio", "ratio"},
	{"cpu.pht_miss_ratio", "ratio"},
	{"cpu.thunked_share", "ratio"},
	{"cpu.touchlines_ns", "ns"},
	{"cpu.icall_ns", "ns"},
	{"cpu.return_ns", "ns"},
	{"cpu.condbranch_ns", "ns"},
	{"cpu.est_share", "ratio"},
	{"workload.new_runner_ms", "ms"},
	{"interp.rec_run_us", "us"},
	{"interp.recorder_lift_ms", "ms"},
	{"prof.sites", "count"},
	{"prof.bytes", "B"},
	{"ir.clone_ms", "ms"},
	{"icp.run_ms", "ms"},
	{"inline.run_ms", "ms"},
	{"harden.apply_ms", "ms"},
	{"ir.verify_ms", "ms"},
	{"interp.compile_ms", "ms"},
	{"attack.evaluate_ms", "ms"},
	{"icp.promoted_targets", "count"},
	{"inline.inlined_sites", "count"},
	{"ir.instrs", "count"},
	{"ir.image_bytes", "B"},
	{"harden.defended_sites", "count"},
	{"ingest.endround_ms", "ms"},
	{"ingest.queue_high_water", "count"},
	{"ingest.gen_share", "ratio"},
	{"fleet.merge_ns_per_delta", "ns"},
	{"prof.flat_merge_ns_per_delta", "ns"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.uncovered_share", "ratio"},
}

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"measure", "profile", "build", "ingest"}

// A benchWorkload owns its set-up products and its seeded op schedule. Every
// method runs on the caller's goroutine.
type benchWorkload interface {
	// setup builds everything the ops need, replacing what an earlier
	// call built. It is what setup_s times.
	setup() error
	// warmup runs untimed ops, so that state the library builds lazily
	// exists before the timed loop.
	warmup() error
	// loop runs every scheduled op once, timing each into l. With a nil
	// tracer the ops are the library calls; with a tracer they are the
	// benchmark's staged replay of the same calls under spans, checked
	// against the untraced loop's results.
	loop(l *opLog, tr *tracer) error
	// verify checks the untraced loop's results against references the
	// timed code did not compute, marking failed ops in l.
	verify(l *opLog) error
	// layers derives per-layer values from the traced loop. Values not
	// named in layerMetrics are printed but kept out of the JSON.
	layers(tr *tracer, l *opLog) map[string]float64
	// workers says how many goroutines the workload keeps busy.
	workers() string
	close()
}

func newWorkload(cfg config) (benchWorkload, error) {
	switch cfg.workload {
	case "measure":
		return &measureW{cfg: cfg}, nil
	case "profile":
		return &profileW{cfg: cfg}, nil
	case "build":
		return &buildW{cfg: cfg}, nil
	case "ingest":
		return &ingestW{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q, want one of %s", cfg.workload, strings.Join(workloadNames, ", "))
}

// outcome is what one workload run measured.
type outcome struct {
	workers    string
	setup      []float64 // seconds per set-up repetition
	plain      *opLog    // the untraced loop
	allocBytes uint64    // heap allocated during the untraced loop
	gcCycles   uint32
	gcPause    time.Duration
	rssMB      float64 // peak resident set at the end of the untraced loop
	traced     *opLog  // nil unless traced
	tr         *tracer
	layers     map[string]float64
	phases     string // wall time of each step, for sizing runs
}

// A run sets up at least setupReps times and until set-up has taken
// setupSeconds in all, at most maxSetupReps times; setup_s is the median.
// Spreading the repetitions over a few seconds keeps a second-long slow
// period of the host from covering all of them.
const (
	setupReps    = 9
	setupSeconds = 3.0
	maxSetupReps = 60
)

func drive(cfg config) (*outcome, error) {
	minReps, minSeconds := setupReps, setupSeconds
	if cfg.tiny || cfg.trace {
		// setup_s is reported by untraced full-size runs only.
		minReps, minSeconds = 1, 0
	}
	o := &outcome{}
	mark := time.Now()
	step := func(name string) {
		o.phases += fmt.Sprintf(" %s %.3f s;", name, time.Since(mark).Seconds())
		mark = time.Now()
	}
	var w benchWorkload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for total := 0.0; len(o.setup) < maxSetupReps && (len(o.setup) < minReps || total < minSeconds); {
		// Each set-up starts from a fresh workload and a collected heap, so
		// the repetitions measure the same work.
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		total += o.setup[len(o.setup)-1]
	}
	o.workers = w.workers()
	step(fmt.Sprintf("%d set-ups", len(o.setup)))
	if err := w.warmup(); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	step("warm-up")
	// Collect set-up and warm-up garbage before timing, so that the first
	// ops do not pay for it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.plain = &opLog{}
	if err := w.loop(o.plain, nil); err != nil {
		return nil, fmt.Errorf("%s loop: %w", cfg.workload, err)
	}
	runtime.ReadMemStats(&after)
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.gcCycles = after.NumGC - before.NumGC
	o.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	// Read the peak before the references, whose own work would otherwise
	// count toward it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.rssMB = rss
	step("loop and checks")
	if err := w.verify(o.plain); err != nil {
		return nil, fmt.Errorf("%s references: %w", cfg.workload, err)
	}
	step("references")
	if cfg.trace {
		runtime.GC()
		o.tr, o.traced = newTracer(), &opLog{}
		if err := w.loop(o.traced, o.tr); err != nil {
			return nil, fmt.Errorf("%s traced loop: %w", cfg.workload, err)
		}
		o.layers = w.layers(o.tr, o.traced)
		step("traced loop")
	}
	return o, nil
}

func run(cfg config, out io.Writer) (*result, error) {
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	o, err := drive(cfg)
	if err != nil {
		return nil, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d busy goroutines: %s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), o.workers)
	fmt.Fprintf(out, "phases:%s\n", o.phases)
	if cfg.trace {
		return reportLayers(cfg, o, out)
	}
	return reportEndToEnd(o, out)
}

func reportEndToEnd(o *outcome, out io.Writer) (*result, error) {
	l := o.plain
	lat, err := summarizeLatency(l.lat)
	if err != nil {
		return nil, err
	}
	n, failed := len(l.lat), l.failures()
	setup := median(o.setup)
	lo, hi := slices.Min(o.setup), slices.Max(o.setup)
	vals := map[string]float64{
		"setup_s":       setup,
		"ops_per_s":     l.opsPerSec(),
		"op_p50_ms":     ms(lat.p50),
		"op_tail_ms":    ms(lat.tail),
		"peak_rss_mb":   o.rssMB,
		"op_fail_ratio": frac(float64(failed), float64(n)),
	}
	notes := map[string]string{
		"setup_s": fmt.Sprintf("median of %d set-ups, %.4f..%.4f s (spread %.1f%% of the median)",
			len(o.setup), lo, hi, 100*frac(hi-lo, setup)),
		"ops_per_s":     fmt.Sprintf("%d ops in %.3f s of loop wall time", n, l.wall.Seconds()),
		"op_p50_ms":     fmt.Sprintf("p50 of %d ops", n),
		"op_tail_ms":    fmt.Sprintf("p%g, %d of %d samples beyond it", lat.tailP, lat.beyond, n),
		"peak_rss_mb":   "peak resident set (ru_maxrss) of the process at the end of the untraced loop",
		"op_fail_ratio": fmt.Sprintf("%d of %d ops failed", failed, n),
	}
	res := &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is %v", d.name, v)
		}
		fmt.Fprintf(out, "%-14s %14.6g %-6s %s\n", d.name, v, d.unit, notes[d.name])
		if d.name != "op_fail_ratio" {
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	l.printFailures(out)
	return res, nil
}

func reportLayers(cfg config, o *outcome, out io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	vals := map[string]float64{}
	source := map[string]string{}
	count := func(ls ...*opLog) {
		for _, l := range ls {
			res.Attempted += len(l.lat)
			res.Failed += l.failures()
			l.printFailures(out)
		}
	}
	for _, name := range workloadNames {
		if name == cfg.workload {
			continue
		}
		pc := cfg
		pc.workload, pc.tiny, pc.corrupt = name, true, false
		po, err := drive(pc)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		count(po.plain, po.traced)
		for k, v := range po.layers {
			vals[k], source[k] = v, "probe: tiny "+name+" run"
		}
	}
	for k, v := range o.layers {
		vals[k], source[k] = v, "own traced loop"
	}
	count(o.plain, o.traced)

	plainRate, tracedRate := o.plain.opsPerSec(), o.traced.opsPerSec()
	totals := o.tr.totals()
	own := map[string]float64{
		"go.alloc_bytes_per_op": float64(o.allocBytes) / float64(len(o.plain.lat)),
		"go.gc_cycles":          float64(o.gcCycles),
		"go.gc_pause_ms":        ms(o.gcPause),
		"trace.overhead_share":  1 - tracedRate/plainRate,
		"trace.uncovered_share": frac(float64(totals["op"].self), float64(totals["op"].dur)),
	}
	for k, v := range own {
		vals[k], source[k] = v, "own loops"
	}

	fmt.Fprintf(out, "tracing overhead: %.6g ops/s untraced, %.6g ops/s traced, difference %.6g ops/s (%d ops each)\n",
		plainRate, tracedRate, plainRate-tracedRate, len(o.traced.lat))
	fmt.Fprintf(out, "self time by span in the traced loop (%.3f s of op time):\n", totals["op"].dur.Seconds())
	names := make([]string, 0, len(totals))
	for k := range totals {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].self > totals[names[j]].self })
	for _, k := range names {
		t := totals[k]
		fmt.Fprintf(out, "  %-22s %9d spans %12.3f ms total %12.3f ms self %6.2f%% of op time\n",
			k, t.n, ms(t.dur), ms(t.self), 100*frac(float64(t.self), float64(totals["op"].dur)))
	}
	for _, d := range layerMetrics {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("no value for layer metric %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("layer metric %s is %v", d.name, v)
		}
		fmt.Fprintf(out, "%-30s %14.6g %-10s %s\n", d.name, v, d.unit, source[d.name])
		res.Metrics[d.name] = metric{v, d.unit}
		delete(vals, d.name)
	}
	extra := make([]string, 0, len(vals))
	for k := range vals {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(out, "%-30s %14.6g %-10s %s, text only (see METRICS.md)\n", k, vals[k], "", source[k])
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := o.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(o.tr.spans), path)
	res.Correct = res.Failed == 0
	return res, nil
}

// kernelSeed fixes the synthetic kernel every workload runs on; the
// workload seed draws only the ops.
const kernelSeed = 1

func newSystem() (*pibe.System, error) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: kernelSeed})
	if err != nil {
		return nil, err
	}
	sys.SetEngine(pibe.EngineCompiled)
	return sys, nil
}

// hardenConfig is the harden.Config System.Build derives from d.
func hardenConfig(d pibe.Defenses) harden.Config {
	return harden.Config{
		Retpolines: d.Retpolines, RetRetpolines: d.RetRetpolines, LVICFI: d.LVICFI,
		LLVMCFI: d.LLVMCFI, StackProtector: d.StackProtector, SafeStack: d.SafeStack,
		FineIBT: d.FineIBT, PACCFI: d.PACCFI, VeriFence: d.VeriFence,
		RSBRefill: d.RSBRefill,
	}
}

// comboDefenses returns the defenses of the named sweep combo; "" means
// none.
func comboDefenses(name string) (pibe.Defenses, error) {
	if name == "" {
		return pibe.Defenses{}, nil
	}
	cs, err := sweep.CombosByName(name)
	if err != nil {
		return pibe.Defenses{}, err
	}
	return cs[0].Defenses, nil
}

// schedule returns rounds × n op indexes, each round a fresh seeded
// permutation of 0..n-1: every run holds the same ops, and the seed
// decides their order.
func schedule(seed int64, n, rounds int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, rng.Perm(n)...)
	}
	return out
}

// roundsFor sizes a run in whole rounds of perRound ops, so that it lasts
// about cfg.seconds at nominal ops per second on the reference box (two
// vCPUs), and holds at least minOps ops. The count depends only on cfg,
// so a parent and a change measure the same work; whole rounds keep the
// op mix identical across seeds.
func roundsFor(cfg config, perRound int, nominal float64) int {
	r := int(math.Round(float64(cfg.seconds) * nominal / float64(perRound)))
	return max(r, (minOps+perRound-1)/perRound, 1)
}

// minOps is the smallest timed loop: p75 then has ten samples beyond it.
const minOps = 40

// tracedOps is how many scheduled ops a traced loop replays: the first
// third of the rounds, at least one. Whole rounds keep the untraced
// loop's op mix, so the two loops' ops_per_s compare.
func tracedOps(perRound, rounds int) int {
	return perRound * max((rounds+2)/3, 1)
}

func serialize(p *prof.Profile) []byte {
	var b bytes.Buffer
	p.WriteTo(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB is the process's peak resident set size (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
