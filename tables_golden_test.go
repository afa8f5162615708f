package pibe_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/sweep"
)

// TestPaperTablesPinned renders Table 5 (every defense at every
// optimization level, measured), Table 11 (attack verdicts) and the §8.4
// robustness table (the LLVM baseline inliner and the candidate-weight
// overlap) at seed 1 and requires each render to appear verbatim in
// bench_tables.txt, the committed output of `pibe-bench -table all`. A change to a cost, a
// pass, the attack model or the measurement driver that moves a number
// fails here until bench_tables.txt is regenerated with it:
//
//	go run ./cmd/pibe-bench -table all > bench_tables.txt
//
// It also requires the budget sweep's `all` cells at (0, 0) and
// (99.999%, 0) to equal Table 5's "no-opt" and "+icp" geomeans exactly:
// the sweep builds and measures each cell through the suite's System,
// not through its Latencies cache, so this is the check that both paths
// measure alike.
func TestPaperTablesPinned(t *testing.T) {
	committed, err := os.ReadFile("bench_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := bench.NewSuite(1)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	var table5 *bench.Table
	for _, id := range []string{"5", "11", "robustness"} {
		tab, err := s.TableByID(id)
		if err != nil {
			t.Fatalf("table %s: %v", id, err)
		}
		if got := tab.Render(); !strings.Contains(string(committed), got) {
			t.Errorf("table %s is not in bench_tables.txt; regenerate that file. Rendered now:\n%s", id, got)
		}
		if id == "5" {
			table5 = tab
		}
	}

	combos, err := sweep.CombosByName("all")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(s, sweep.Config{
		ICPGrid:    []float64{0, bench.BudgetICP},
		InlineGrid: []float64{0},
		Combos:     combos,
		Warnf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	base, err := s.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	gm := table5.Rows[len(table5.Rows)-1]
	for i, cfg := range []pibe.BuildConfig{
		{Defenses: pibe.AllDefenses},
		{Profile: s.ProfLM, Defenses: pibe.AllDefenses, Optimize: pibe.OptimizeConfig{ICPBudget: bench.BudgetICP}},
	} {
		lat, err := s.Latencies(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ovs := make([]float64, len(lat))
		for j := range lat {
			ovs[j] = pibe.Overhead(base[j].Micros, lat[j].Micros)
		}
		c := rep.Cells[i]
		if want := pibe.Geomean(ovs); c.Geomean != want {
			t.Errorf("sweep cell icp %g: geomean %v, Table 5's %q column %v", c.ICPBudget, c.Geomean, table5.Header[1+i], want)
		}
		if got := fmt.Sprintf("%+.1f%%", 100*c.Geomean); got != gm[1+i] {
			t.Errorf("sweep cell icp %g renders %s, Table 5's %q GEOMEAN is %s", c.ICPBudget, got, table5.Header[1+i], gm[1+i])
		}
	}
}
