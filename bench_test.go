// Benchmarks that regenerate each table of the paper's evaluation.
// Run a single table with e.g.
//
//	go test -bench=BenchmarkTable5 -benchtime=1x
//
// Each benchmark reports the headline metric of its table as a custom
// unit so regressions in the reproduction are visible in benchstat
// output (geomean overheads in percent, counts otherwise).
package pibe_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	pibe "repro"
	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sweep"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = bench.NewSuite(1)
	})
	if suiteErr != nil {
		b.Fatalf("NewSuite: %v", suiteErr)
	}
	return suite
}

// lastPct extracts the last percentage from a table row cell like
// "+138.1%" and returns it as a float, for ReportMetric.
func lastPct(cell string) float64 {
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "%")
	cell = strings.TrimPrefix(cell, "+")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func runTable(b *testing.B, id string, metric func(*bench.Table) (float64, string)) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableByID(id)
		if err != nil {
			b.Fatalf("table %s: %v", id, err)
		}
		if metric != nil {
			v, unit := metric(t)
			b.ReportMetric(v, unit)
		}
	}
}

// geomeanOfLastRow pulls the geomean out of a table whose final row is
// the GEOMEAN row; col selects the column.
func geomeanOfLastRow(col int, unit string) func(*bench.Table) (float64, string) {
	return func(t *bench.Table) (float64, string) {
		last := t.Rows[len(t.Rows)-1]
		return lastPct(last[col]), unit
	}
}

func BenchmarkTable1(b *testing.B) {
	runTable(b, "1", func(t *bench.Table) (float64, string) {
		// icall ticks under all defenses (paper: 73).
		v, _ := strconv.ParseFloat(t.Rows[len(t.Rows)-1][2], 64)
		return v, "alldef-icall-ticks"
	})
}

func BenchmarkTable2(b *testing.B) {
	runTable(b, "2", geomeanOfLastRow(3, "pgo-geomean-%"))
}

func BenchmarkTable3(b *testing.B) {
	runTable(b, "3", geomeanOfLastRow(4, "icp99.999-geomean-%"))
}

func BenchmarkTable4(b *testing.B) {
	runTable(b, "4", func(t *bench.Table) (float64, string) {
		v, _ := strconv.ParseFloat(t.Rows[0][1], 64)
		return v, "single-target-sites"
	})
}

func BenchmarkTable5(b *testing.B) {
	runTable(b, "5", geomeanOfLastRow(6, "lax-geomean-%"))
}

func BenchmarkTable6(b *testing.B) {
	runTable(b, "6", func(t *bench.Table) (float64, string) {
		return lastPct(t.Rows[len(t.Rows)-1][2]), "alldef-pibe-geomean-%"
	})
}

func BenchmarkTable7(b *testing.B) {
	runTable(b, "7", func(t *bench.Table) (float64, string) {
		// nginx all-defenses PIBE degradation (last column of row 3).
		return lastPct(t.Rows[3][4]), "nginx-alldef-pibe-%"
	})
}

func BenchmarkTable8(b *testing.B)  { runTable(b, "8", nil) }
func BenchmarkTable9(b *testing.B)  { runTable(b, "9", nil) }
func BenchmarkTable10(b *testing.B) { runTable(b, "10", nil) }

func BenchmarkTable11(b *testing.B) {
	runTable(b, "11", func(t *bench.Table) (float64, string) {
		v, _ := strconv.ParseFloat(t.Rows[1][1], 64)
		return v, "vuln-icalls"
	})
}

func BenchmarkTable12(b *testing.B) { runTable(b, "12", nil) }

func BenchmarkRobustness(b *testing.B) {
	runTable(b, "robustness", func(t *bench.Table) (float64, string) {
		// Apache-profile (mismatched) geomean, the §8.4 headline.
		return lastPct(t.Rows[2][1]), "apache-profile-geomean-%"
	})
}

// dispatchMachine builds the dispatch-microbenchmark machine — the same
// loop of straight-line work, direct calls and a skewed indirect call
// that internal/interp's engine benchmarks use — so the root pair below
// tracks raw per-instruction dispatch cost for the two execution tiers.
func dispatchMachine(b *testing.B, eng interp.Engine) (*interp.Machine, int) {
	b.Helper()
	m := ir.NewModule()
	w := ir.NewFunction(m, "work", 0)
	w.ALU(10).Ret()
	ha := ir.NewFunction(m, "handler_a", 1)
	ha.ALU(2).Ret()
	hb := ir.NewFunction(m, "handler_b", 1)
	hb.ALU(20).Ret()
	e := ir.NewFunction(m, "entry", 0)
	e.Jmp("loop")
	e.NewBlock("loop")
	e.ALU(12)
	e.Call("work", 0)
	site := e.IndirectCall(1)
	e.BrLoop(100, "loop", "out")
	e.NewBlock("out")
	e.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		b.Fatalf("Verify: %v", err)
	}
	p, err := interp.Compile(m)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	mc := interp.NewMachine(p, 1)
	mc.CPU = cpu.New(cpu.DefaultParams())
	mc.Engine = eng
	res := interp.NewResolver()
	d, err := interp.NewDist(
		[]int{p.FuncIndex("handler_a"), p.FuncIndex("handler_b")},
		[]uint64{9, 1},
	)
	if err != nil {
		b.Fatalf("NewDist: %v", err)
	}
	res.Set(site, d)
	mc.Res = res
	return mc, p.FuncIndex("entry")
}

func runDispatch(b *testing.B, eng interp.Engine) {
	mc, idx := dispatchMachine(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.RunIndex(idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRun times the packed-event interpreter's dispatch;
// BenchmarkMachineRunCompiled times the threaded-code tier on the same
// machine shape. CI compares the pair's median ns/op over five runs
// and fails unless the compiled tier is strictly faster.
func BenchmarkMachineRun(b *testing.B)         { runDispatch(b, interp.EngineInterp) }
func BenchmarkMachineRunCompiled(b *testing.B) { runDispatch(b, interp.EngineCompiled) }

// reportSink keeps BenchmarkBuildSurface's SecurityReport calls live.
var reportSink attack.Report

// BenchmarkBuildSurface times the compile side of a sweep cell: one
// System.Build plus Image.SecurityReport per iteration, from the seed-1
// kernel's LMBench profile at scale 5. Iteration i builds cell i mod 343
// of sweep.DefaultGrid (ICP budget) × sweep.DefaultGrid (inline budget) ×
// sweep.DefaultCombos, combos varying fastest, so -benchtime=343x covers
// the whole surface once.
func BenchmarkBuildSurface(b *testing.B) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 1})
	if err != nil {
		b.Fatalf("NewSyntheticKernel: %v", err)
	}
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		b.Fatalf("Profile: %v", err)
	}
	grid, combos := sweep.DefaultGrid, sweep.DefaultCombos()
	cells := len(grid) * len(grid) * len(combos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % cells
		combo := combos[c%len(combos)]
		budgets := c / len(combos)
		img, err := sys.Build(pibe.BuildConfig{
			Profile:  p,
			Defenses: combo.Defenses,
			Optimize: pibe.OptimizeConfig{
				ICPBudget:    grid[budgets/len(grid)],
				InlineBudget: grid[budgets%len(grid)],
			},
		})
		if err != nil {
			b.Fatalf("Build cell %d (%s): %v", c, combo.Name, err)
		}
		reportSink = img.SecurityReport()
	}
}
