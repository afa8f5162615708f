package sweep

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/resilience"
)

func TestParseGrid(t *testing.T) {
	got, err := ParseGrid(" 99.9, 0, 50%, 99.9 ")
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	// Sorted, deduplicated, and snapped: 99.9/100 is exactly 0.999, not
	// 0.999000...01 float noise.
	want := []float64{0, 0.5, 0.999}
	if len(got) != len(want) {
		t.Fatalf("ParseGrid = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseGrid[%d] = %v, want exactly %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", ",,", "100", "-1", "99.9,abc", "nan"} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted, want error", bad)
		}
	}
	// The parse failure is wrapped with %w: the strconv error stays
	// reachable so callers can tell a malformed flag from a range error.
	_, err = ParseGrid("99.9,abc")
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Errorf("ParseGrid error %v does not unwrap to *strconv.NumError", err)
	}
}

func TestCombosByName(t *testing.T) {
	got, err := CombosByName("retpoline, all")
	if err != nil {
		t.Fatalf("CombosByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "retpoline" || got[1].Name != "all" {
		t.Fatalf("CombosByName = %+v", got)
	}
	if !got[1].Defenses.Retpolines || !got[1].Defenses.LVICFI {
		t.Errorf("combo 'all' defenses = %+v, want all enabled", got[1].Defenses)
	}
	if all, err := CombosByName(""); err != nil || len(all) != 7 {
		t.Errorf("CombosByName(empty) = %d combos, %v; want the 7 defaults", len(all), err)
	}
	for _, name := range []string{"fineibt", "pac-cfi", "verifence"} {
		got, err := CombosByName(name)
		if err != nil || len(got) != 1 || got[0].Name != name {
			t.Errorf("CombosByName(%q) = %+v, %v", name, got, err)
		}
	}
	if c, _ := CombosByName("verifence"); !c[0].Defenses.VeriFence || c[0].Defenses.Retpolines {
		t.Errorf("combo 'verifence' defenses = %+v, want only VeriFence", c[0].Defenses)
	}
	if _, err := CombosByName("retpoline,bogus"); err == nil {
		t.Error("CombosByName accepted unknown combo")
	}
}

// TestCombosByNameDuplicate: a repeated combo would silently double its
// cells in the sweep surface, so it is rejected with a typed config
// fault naming the offender.
func TestCombosByNameDuplicate(t *testing.T) {
	_, err := CombosByName("retpoline,all,retpoline")
	if err == nil {
		t.Fatal("CombosByName accepted a duplicate combo")
	}
	fault, ok := resilience.AsFault(err)
	if !ok {
		t.Fatalf("duplicate error %v is not a resilience.FaultError", err)
	}
	if fault.Kind != resilience.KindConfig || fault.Site != "sweep-combos" {
		t.Errorf("fault = kind %v site %q, want KindConfig at sweep-combos", fault.Kind, fault.Site)
	}
	if !strings.Contains(err.Error(), "retpoline") {
		t.Errorf("error %q does not name the duplicated combo", err)
	}
}

func TestScaledKernelConfig(t *testing.T) {
	if cfg := ScaledKernelConfig(7, 1); cfg != (pibe.KernelConfig{Seed: 7}) {
		t.Errorf("scale 1 = %+v, want the default kernel config", cfg)
	}
	cfg := ScaledKernelConfig(7, 3)
	if cfg.ColdFuncs != 6600 || cfg.HelperLayers != 2 {
		t.Errorf("scale 3 = %+v, want ColdFuncs 6600, HelperLayers 2", cfg)
	}
	if cfg := ScaledKernelConfig(7, 10); cfg.HelperLayers != 4 {
		t.Errorf("scale 10 HelperLayers = %d, want the cap 4", cfg.HelperLayers)
	}
}

// TestKneeSelection drives the knee detector over hand-built cells:
// within the default 1.1x factor tolerance the least aggressive
// qualifying budget pair wins; tightening the tolerance moves the knee
// to the best cell; negative best overheads (PGO beating the baseline)
// compare as slowdown factors, not raw geomeans.
func TestKneeSelection(t *testing.T) {
	cfg := Config{
		Combos:     []Combo{{Name: "c"}},
		KneeFactor: 1.1,
	}
	cells := []Cell{
		{Combo: "c", ICPBudget: 0, InlineBudget: 0, Geomean: 1.00},
		{Combo: "c", ICPBudget: 0.5, InlineBudget: 0.5, Geomean: 0.05},
		{Combo: "c", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: 0.02},
	}
	ks := knees(cfg, cells)
	if len(ks) != 1 {
		t.Fatalf("knees = %+v, want 1", ks)
	}
	// 1.05 <= 1.1 * 1.02, so the cheaper 50% pair is the knee.
	if ks[0].ICPBudget != 0.5 || ks[0].InlineBudget != 0.5 || ks[0].BestGeomean != 0.02 {
		t.Errorf("knee = %+v, want the 50%%/50%% cell with best 0.02", ks[0])
	}

	cfg.KneeFactor = 1.01 // 1.05 > 1.01 * 1.02: only the best qualifies
	ks = knees(cfg, cells)
	if len(ks) != 1 || ks[0].ICPBudget != 0.999 {
		t.Errorf("tight knee = %+v, want the 99.9%% cell", ks)
	}

	neg := []Cell{
		{Combo: "c", ICPBudget: 0, InlineBudget: 0, Geomean: 0.30},
		{Combo: "c", ICPBudget: 0.5, InlineBudget: 0, Geomean: -0.02},
		{Combo: "c", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: -0.06},
	}
	cfg.KneeFactor = 1.1
	ks = knees(cfg, neg)
	// Factor 0.98 <= 1.1 * 0.94: the half-budget cell already buys the win.
	if len(ks) != 1 || ks[0].ICPBudget != 0.5 || ks[0].InlineBudget != 0 {
		t.Errorf("negative-overhead knee = %+v, want the 50%%/0%% cell", ks)
	}
	if math.Abs(ks[0].BestGeomean-(-0.06)) > 1e-12 {
		t.Errorf("BestGeomean = %v, want -0.06", ks[0].BestGeomean)
	}
}

// TestRunRejectsUnusableKneeFactor: a knee factor below 1 finds no
// knee, and a non-finite one cannot be written to the report, so Run
// rejects both with a typed config fault before it measures anything;
// 0 (the default) and 1 run.
func TestRunRejectsUnusableKneeFactor(t *testing.T) {
	s := newSweepSuite(t, 1)
	combos, err := CombosByName("retpoline")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(k float64, state string) Config {
		return Config{ICPGrid: []float64{0}, InlineGrid: []float64{0}, Combos: combos,
			KneeFactor: k, StatePath: state, Warnf: t.Logf}
	}
	for _, k := range []float64{math.NaN(), math.Inf(1), -1, 0.5} {
		state := filepath.Join(t.TempDir(), "sweep.state")
		rep, err := Run(s, cfg(k, state))
		fault, ok := resilience.AsFault(err)
		if !ok || fault.Kind != resilience.KindConfig || fault.Site != "sweep-knee" {
			t.Errorf("knee factor %v: err = %v, want a KindConfig fault at sweep-knee", k, err)
		}
		if rep != nil {
			t.Errorf("knee factor %v: got a report with %d cells, want none", k, len(rep.Cells))
		}
		// The state file is opened after the baseline and before any
		// cell: its absence shows that nothing was measured.
		if _, err := os.Stat(state); !os.IsNotExist(err) {
			t.Errorf("knee factor %v: state file exists (stat: %v), want no measured cell", k, err)
		}
	}
	for k, want := range map[float64]float64{0: 1.1, 1: 1} {
		rep, err := Run(s, cfg(k, ""))
		if err != nil {
			t.Fatalf("knee factor %v: %v", k, err)
		}
		if rep.KneeFactor != want || len(rep.Cells) != 1 || len(rep.Knees) != 1 {
			t.Errorf("knee factor %v: factor %v, %d cells, %d knees; want %v, 1, 1",
				k, rep.KneeFactor, len(rep.Cells), len(rep.Knees), want)
		}
	}
}

// TestBudgetLabelSweep checks the budget labels of the sweep's heat
// map: each inline budget heads a column and each ICP budget a row,
// written the way the paper writes them.
func TestBudgetLabelSweep(t *testing.T) {
	grid := []float64{0, 0.5, 0.999, 0.999999}
	want := []string{"0%", "50%", "99.9%", "99.9999%"}
	r := &Report{ICPGrid: grid, InlineGrid: grid, Combos: []string{"retpoline"}}
	tables := r.Tables()
	if len(tables) != 1 {
		t.Fatalf("Tables() = %d tables, want 1", len(tables))
	}
	tb := tables[0]
	if got := strings.Join(tb.Header[1:], " "); got != strings.Join(want, " ") {
		t.Errorf("column labels = %q, want %q", got, strings.Join(want, " "))
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, row := range tb.Rows {
		if row[0] != want[i] {
			t.Errorf("row %d label = %q, want %q", i, row[0], want[i])
		}
	}
}

func newSweepSuite(t *testing.T, measureWorkers int) *bench.Suite {
	t.Helper()
	s, err := bench.NewSuiteKernel(pibe.KernelConfig{Seed: 5, ColdFuncs: 300})
	if err != nil {
		t.Fatalf("NewSuiteKernel: %v", err)
	}
	s.Sys.SetMeasureWorkers(measureWorkers)
	return s
}

// TestSweepSmallGridDeterministicAndMonotone is the acceptance test of
// the sweep engine: the same seed and grid produce byte-identical
// BENCH_sweep.json for -measure-workers 1, 2 and GOMAXPROCS (each on a
// fresh suite, so nothing is cached between runs) and once more with
// every cell measured on the per-event reference loop, and within each
// defense combo the fully-budgeted diagonal cell is strictly cheaper
// than the unoptimized origin cell — the paper's overhead trajectory in
// miniature.
func TestSweepSmallGridDeterministicAndMonotone(t *testing.T) {
	grid := []float64{0, 0.999}
	combos, err := CombosByName("retpoline,all")
	if err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	// The last run repeats the widest on the reference loop, which is
	// slow enough that it needs every worker.
	runs := append(workerCounts, runtime.GOMAXPROCS(0))

	var first *Report
	var firstJSON []byte
	for i, w := range runs {
		s := newSweepSuite(t, w)
		s.Workers = w // vary the cell fan-out too, not just measurement
		if i == len(workerCounts) {
			s.Sys.SetEngine(pibe.EngineInterp)
		}
		rep, err := Run(s, Config{
			ICPGrid:    grid,
			InlineGrid: grid,
			Combos:     combos,
			Warnf:      t.Logf,
		})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", w, err)
		}
		data, err := rep.WriteJSON()
		if err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if first == nil {
			first, firstJSON = rep, data
			continue
		}
		if !bytes.Equal(firstJSON, data) {
			t.Fatalf("BENCH_sweep.json differs between run 0 (workers=%d) and run %d (workers=%d, reference loop %t)",
				runs[0], i, w, i == len(workerCounts))
		}
	}

	if len(first.Cells) != len(combos)*len(grid)*len(grid) {
		t.Fatalf("cells = %d, want %d", len(first.Cells), len(combos)*len(grid)*len(grid))
	}
	cellAt := func(combo string, icp, inl float64) Cell {
		for _, c := range first.Cells {
			if c.Combo == combo && c.ICPBudget == icp && c.InlineBudget == inl {
				return c
			}
		}
		t.Fatalf("missing cell %s/%v/%v", combo, icp, inl)
		return Cell{}
	}
	for _, combo := range combos {
		origin := cellAt(combo.Name, 0, 0)
		full := cellAt(combo.Name, 0.999, 0.999)
		if !(full.Geomean < origin.Geomean) {
			t.Errorf("%s: geomean at 99.9%%/99.9%% = %v, want < origin %v",
				combo.Name, full.Geomean, origin.Geomean)
		}
		if origin.ICPWeightFrac != 0 || origin.InlineReturnFrac != 0 {
			t.Errorf("%s origin eliminated fractions = %v/%v, want 0/0",
				combo.Name, origin.ICPWeightFrac, origin.InlineReturnFrac)
		}
		if full.ICPWeightFrac < 0.9 {
			t.Errorf("%s full-budget ICP weight eliminated = %v, want >= 0.9",
				combo.Name, full.ICPWeightFrac)
		}
		if full.BuildMS != 0 {
			t.Errorf("%s BuildMS = %v, want 0 without Config.Timings", combo.Name, full.BuildMS)
		}
	}
	if len(first.Knees) != len(combos) {
		t.Fatalf("knees = %+v, want one per combo", first.Knees)
	}

	// The rendered matrices mark each combo's knee and restate it.
	var rendered strings.Builder
	for _, tab := range first.Tables() {
		rendered.WriteString(tab.Render())
	}
	out := rendered.String()
	for _, want := range []string{"sweep-retpoline", "sweep-all", "*", "knee (*)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q:\n%s", want, out)
		}
	}
}

// TestSweepLiveHeapDoesNotGrowWithCells: a cell keeps only its Cell, so
// the live heap after a sweep does not grow with the number of cells it
// evaluated. Peak memory is then bounded by the cells in flight, not by
// the grid.
func TestSweepLiveHeapDoesNotGrowWithCells(t *testing.T) {
	s := newSweepSuite(t, 1)
	if _, err := s.Baseline(); err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	before := liveHeap()
	img, err := s.Sys.Build(pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: 0.999, InlineBudget: 0.999},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := img.MeasureLMBench(pibe.LMBench); err != nil {
		t.Fatalf("MeasureLMBench: %v", err)
	}
	imageBytes := liveHeap() - before
	runtime.KeepAlive(img)

	combos, err := CombosByName("all")
	if err != nil {
		t.Fatal(err)
	}
	run := func(grid []float64) {
		t.Helper()
		if _, err := Run(s, Config{ICPGrid: grid, InlineGrid: grid, Combos: combos, Warnf: t.Logf}); err != nil {
			t.Fatalf("Run(%v): %v", grid, err)
		}
	}
	run([]float64{0})
	oneCell := liveHeap()
	run([]float64{0, 0.999})
	fourCells := liveHeap()
	runtime.KeepAlive(s)
	if growth := fourCells - oneCell; growth >= imageBytes/2 {
		t.Errorf("live heap grew by %d B from a 1-cell to a 4-cell sweep; one image is %d B, so cells outlive the sweep",
			growth, imageBytes)
	}
}
