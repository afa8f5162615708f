package sweep

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func diffFixture() (*Report, *Report) {
	grid := []float64{0, 0.999}
	a := &Report{
		Seed: 1, ICPGrid: grid, InlineGrid: grid, KneeFactor: 1.1,
		Combos: []string{"all"},
		Cells: []Cell{
			{Combo: "all", ICPBudget: 0, InlineBudget: 0, Geomean: 1.49},
			{Combo: "all", ICPBudget: 0, InlineBudget: 0.999, Geomean: 0.80},
			{Combo: "all", ICPBudget: 0.999, InlineBudget: 0, Geomean: 0.60},
			{Combo: "all", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: 0.106},
		},
		Knees: []Knee{{Combo: "all", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: 0.106, BestGeomean: 0.106}},
	}
	b := &Report{
		Seed: 1, ICPGrid: grid, InlineGrid: grid, KneeFactor: 1.1,
		Combos: []string{"all"},
		Cells: []Cell{
			{Combo: "all", ICPBudget: 0, InlineBudget: 0, Geomean: 1.49},
			{Combo: "all", ICPBudget: 0, InlineBudget: 0.999, Geomean: 0.11}, // improved enough to become the knee
			{Combo: "all", ICPBudget: 0.999, InlineBudget: 0, Failed: true, Failure: "boom"},
			{Combo: "all", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: 0.106},
		},
		Knees: []Knee{{Combo: "all", ICPBudget: 0, InlineBudget: 0.999, Geomean: 0.11, BestGeomean: 0.106}},
	}
	return a, b
}

func TestDiffDeltasAndKneeMigration(t *testing.T) {
	a, b := diffFixture()
	d := Diff(a, b)
	if len(d.Cells) != 4 {
		t.Fatalf("diff cells = %d, want 4", len(d.Cells))
	}
	at := func(icp, inl float64) CellDelta {
		for _, c := range d.Cells {
			if c.ICPBudget == icp && c.InlineBudget == inl {
				return c
			}
		}
		t.Fatalf("missing delta %v/%v", icp, inl)
		return CellDelta{}
	}
	if got := at(0, 0.999).Delta; math.Abs(got-(-0.69)) > 1e-12 {
		t.Errorf("delta(0, 99.9) = %v, want -0.69", got)
	}
	if got := at(0, 0).Delta; got != 0 {
		t.Errorf("delta(0,0) = %v, want 0", got)
	}
	if c := at(0.999, 0); !c.BFailed || c.Delta != 0 {
		t.Errorf("failed-B cell = %+v, want BFailed with no delta", c)
	}
	if math.Abs(d.MaxAbsDelta-0.69) > 1e-12 {
		t.Errorf("MaxAbsDelta = %v, want 0.69", d.MaxAbsDelta)
	}
	if len(d.Knees) != 1 || !d.Knees[0].Moved {
		t.Fatalf("knee moves = %+v, want one moved knee", d.Knees)
	}

	out := ""
	for _, tab := range d.Tables(a, b) {
		out += tab.Render()
	}
	for _, want := range []string{"sweep-diff-all", "knee MOVED", "FAIL:B", "-69.00pp"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered diff missing %q:\n%s", want, out)
		}
	}
}

// TestDiffDisjointCells: cells present on one side only are reported as
// such, never as a numeric delta.
func TestDiffDisjointCells(t *testing.T) {
	a, b := diffFixture()
	b.Cells = append(b.Cells, Cell{Combo: "all", ICPBudget: 0.5, InlineBudget: 0.5, Geomean: 0.2})
	a.Cells = append(a.Cells, Cell{Combo: "retpoline", ICPBudget: 0, InlineBudget: 0, Geomean: 0.3})
	a.Combos = append(a.Combos, "retpoline")
	d := Diff(a, b)
	var bOnly, aOnly int
	for _, c := range d.Cells {
		switch c.OnlyIn {
		case "a":
			aOnly++
			if c.Combo != "retpoline" {
				t.Errorf("unexpected A-only cell %+v", c)
			}
		case "b":
			bOnly++
			if c.ICPBudget != 0.5 {
				t.Errorf("unexpected B-only cell %+v", c)
			}
		}
	}
	if aOnly != 1 || bOnly != 1 {
		t.Errorf("one-sided cells = %d A-only, %d B-only; want 1 and 1", aOnly, bOnly)
	}
	// The retpoline combo exists only in A: its knee move reports a
	// disappeared knee (nil on the B side) without panicking.
	for _, k := range d.Knees {
		if k.Combo == "retpoline" && k.B != nil {
			t.Errorf("retpoline knee B = %+v, want nil", k.B)
		}
	}
}

// TestReadReportRejectsNonSurfaces: a file whose cells are not exactly
// its grid is not a sweep surface, so sweep-diff must refuse it rather
// than diff it as an empty one. The error names the file.
func TestReadReportRejectsNonSurfaces(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		t.Helper()
		data, err := r.WriteJSON()
		if err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, _ := diffFixture()
	if r, err := ReadReport(write("good.json", good)); err != nil || len(r.Cells) != 4 {
		t.Fatalf("full surface: %v cells, %v; want 4 cells and no error", r, err)
	}

	missing, _ := diffFixture()
	missing.Cells = missing.Cells[:3]
	twice, _ := diffFixture()
	twice.Cells[3] = twice.Cells[0]
	foreign, _ := diffFixture()
	foreign.Cells[3].Combo = "retpoline"
	empty, _ := diffFixture()
	empty.Combos, empty.Cells = nil, nil
	bad := map[string]string{
		"ingest.json":  `{"seed": 1, "tenants": 64, "snapshot_hash": "f0269ed9ed9eb496"}`,
		"object.json":  `{}`,
		"missing.json": "",
		"twice.json":   "",
		"foreign.json": "",
		"empty.json":   "",
	}
	for name, r := range map[string]*Report{"missing.json": missing, "twice.json": twice, "foreign.json": foreign, "empty.json": empty} {
		write(name, r)
	}
	for name, body := range bad {
		path := filepath.Join(dir, name)
		if body != "" {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := ReadReport(path)
		if err == nil {
			t.Errorf("%s: read as a surface of %d cells, want an error", name, len(r.Cells))
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}
