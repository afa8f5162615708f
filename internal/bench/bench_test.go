package bench

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	pibe "repro"
	"repro/internal/prof"
	"repro/internal/resilience"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "1"}, {"beta-long", "22"}},
		Notes:  []string{"a note"},
	}
	out := tab.Render()
	for _, want := range []string{"Table x: demo", "alpha", "beta-long", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: both data rows end at the same width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines[2]) == 0 {
		t.Fatal("missing separator")
	}
}

func TestBudgetLabel(t *testing.T) {
	cases := map[float64]string{
		0:        "0%",
		0.5:      "50%",
		0.99:     "99%",
		0.999:    "99.9%",
		0.99999:  "99.999%",
		0.999999: "99.9999%",
	}
	for in, want := range cases {
		if got := BudgetLabel(in); got != want {
			t.Errorf("BudgetLabel(%v) = %q, want %q", in, got, want)
		}
	}
}

func newTestSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(2)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	return s
}

func TestSuiteStaticTables(t *testing.T) {
	s := newTestSuite(t)

	t4, err := s.Table4()
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(t4.Rows) != 1 || len(t4.Rows[0]) != 8 {
		t.Fatalf("Table4 shape: %+v", t4.Rows)
	}
	// Most sites are single-target (Table 4's dominant bucket).
	if t4.Rows[0][1] == "0" {
		t.Error("no single-target sites in profile")
	}

	t8, err := s.Table8()
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	if len(t8.Rows) != 3 {
		t.Fatalf("Table8 rows = %d, want 3 budgets", len(t8.Rows))
	}

	t9, err := s.Table9()
	if err != nil {
		t.Fatalf("Table9: %v", err)
	}
	if len(t9.Rows) != 3 {
		t.Fatalf("Table9 rows = %d", len(t9.Rows))
	}

	t10, err := s.Table10()
	if err != nil {
		t.Fatalf("Table10: %v", err)
	}
	if len(t10.Rows) != 3 {
		t.Fatalf("Table10 rows = %d", len(t10.Rows))
	}

	t11, err := s.Table11()
	if err != nil {
		t.Fatalf("Table11: %v", err)
	}
	if got := t11.Rows[2][1]; got != "5" {
		t.Errorf("Table11 vulnerable ijumps = %s, want 5", got)
	}

	t12, err := s.Table12()
	if err != nil {
		t.Fatalf("Table12: %v", err)
	}
	if len(t12.Rows) < 6 {
		t.Fatalf("Table12 rows = %d", len(t12.Rows))
	}
}

func TestTable1MatchesCostModel(t *testing.T) {
	s := newTestSuite(t)
	t1, err := s.Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	// The final row is "all defenses": icall delta must be ≈ fenced
	// retpoline (42-2) + fenced return (32-1) ≈ 71 ticks.
	all := t1.Rows[len(t1.Rows)-1]
	if all[0] != "all defenses" {
		t.Fatalf("row order changed: %v", all)
	}
	if !strings.HasPrefix(all[2], "7") {
		t.Errorf("all-defenses icall ticks = %s, want ≈71", all[2])
	}
}

func TestCandidateOverlapBounds(t *testing.T) {
	s := newTestSuite(t)
	for _, indirect := range []bool{true, false} {
		ov := prof.CandidateOverlap(s.ProfLM.Raw(), s.ProfApache.Raw(), 0.99, indirect)
		if ov < 0 || ov > 1 {
			t.Errorf("overlap(indirect=%v) = %v out of range", indirect, ov)
		}
		// A profile always fully overlaps itself.
		if self := prof.CandidateOverlap(s.ProfLM.Raw(), s.ProfLM.Raw(), 0.99, indirect); self < 0.999 {
			t.Errorf("self-overlap = %v, want 1", self)
		}
	}
}

func TestTableByIDUnknown(t *testing.T) {
	s := newTestSuite(t)
	if _, err := s.TableByID("42"); err == nil {
		t.Fatal("unknown table id accepted")
	}
}

// TestParallelTablesMatchSerial: the worker-pool table generators must
// render byte-identical tables to a serial run, and concurrent suites
// must be race-free (run under -race in CI). Table 3 covers parallel
// measurement through the Latencies cache, Table 7 parallel
// request-cycle measurement, and Tables 11 and 12 parallel builds whose
// images are read inside the fan-out; Tables 5 and 6 share Table 3's
// machinery and Tables 8–10 Table 11's, so these four are
// representative without making the race run prohibitive.
func TestParallelTablesMatchSerial(t *testing.T) {
	serial := newTestSuite(t)
	serial.Workers = 1
	par := newTestSuite(t)
	par.Workers = 4
	for _, id := range []string{"3", "7", "11", "12"} {
		ts, err := serial.TableByID(id)
		if err != nil {
			t.Fatalf("serial table %s: %v", id, err)
		}
		tp, err := par.TableByID(id)
		if err != nil {
			t.Fatalf("parallel table %s: %v", id, err)
		}
		if ts.Render() != tp.Render() {
			t.Errorf("table %s differs between serial and parallel generation:\n--- serial ---\n%s--- parallel ---\n%s",
				id, ts.Render(), tp.Render())
		}
	}
}

// TestConcurrentImageSingleflight: many goroutines racing for equal
// configurations share exactly one build: the first builds, measures
// and drops the image, and every racer gets that one measurement.
func TestConcurrentImageSingleflight(t *testing.T) {
	s := newTestSuite(t)
	const n = 8
	lats := make([][]pibe.Latency, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat, err := s.Latencies(pibe.BuildConfig{Defenses: pibe.AllDefenses})
			if err != nil {
				t.Errorf("Latencies: %v", err)
				return
			}
			lats[i] = lat
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if &lats[i][0] != &lats[0][0] {
			t.Fatalf("goroutine %d got different latencies: singleflight built more than once", i)
		}
	}
}

// TestImageCaching: the cache is keyed by the configuration itself, so
// equal configurations share one image's measurement, whichever table
// asks, and different configurations never share one.
func TestImageCaching(t *testing.T) {
	s := newTestSuite(t)
	cfgs := []pibe.BuildConfig{
		{Defenses: pibe.AllDefenses},
		{},
		{Profile: s.ProfLM, Defenses: pibe.AllDefenses, Optimize: pibe.OptimizeConfig{ICPBudget: BudgetICP}},
		{Profile: s.ProfApache, Defenses: pibe.AllDefenses, Optimize: pibe.OptimizeConfig{ICPBudget: BudgetICP}},
	}
	lats := make([][]pibe.Latency, len(cfgs))
	for i, cfg := range cfgs {
		lat, err := s.Latencies(cfg)
		if err != nil {
			t.Fatalf("Latencies(%s): %v", cfgLabel(cfg), err)
		}
		lats[i] = lat
	}
	for i, cfg := range cfgs {
		again, err := s.Latencies(cfg)
		if err != nil {
			t.Fatalf("Latencies(%s): %v", cfgLabel(cfg), err)
		}
		if &again[0] != &lats[i][0] {
			t.Errorf("config %d: equal configs measured twice", i)
		}
		for j := range lats[:i] {
			if &lats[j][0] == &lats[i][0] {
				t.Errorf("configs %d and %d differ but share one measurement", j, i)
			}
		}
	}
	base, err := s.Baseline()
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	if &base[0] != &lats[1][0] {
		t.Error("Baseline and the equal empty config measured twice")
	}
}

// TestTablesRetainNoImage: a table that reads images keeps only the
// numbers it prints. After Table 12 (13 builds) the suite, which is
// still alive, must hold less live heap than one built image.
func TestTablesRetainNoImage(t *testing.T) {
	s := newTestSuite(t)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	img, err := s.Sys.Build(pibe.BuildConfig{Defenses: pibe.AllDefenses})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	one := live() - before
	runtime.KeepAlive(img)
	img = nil

	before = live()
	if _, err := s.Table12(); err != nil {
		t.Fatalf("Table12: %v", err)
	}
	grown := live() - before
	runtime.KeepAlive(s)
	t.Logf("one image %.1f MB live; Table 12 grew the live heap by %.1f MB", float64(one)/1e6, float64(grown)/1e6)
	if grown >= one {
		t.Errorf("Table 12 grew the live heap by %d B, at least one image's %d B: the suite retains images", grown, one)
	}
}

// TestForEachSerialContract: the serial (effective workers == 1) path
// honors the same contract as the worker pool — every index runs even
// after an earlier one fails (cache warm-up must be identical for every
// worker count) and the lowest-index error is the one returned.
func TestForEachSerialContract(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		ran := make(map[int]bool)
		s := &Suite{Workers: workers}
		err := s.ForEach(5, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			switch i {
			case 1:
				return errors.New("early")
			case 3:
				return errors.New("late")
			}
			return nil
		})
		if err == nil || err.Error() != "early" {
			t.Errorf("workers=%d: err = %v, want the lowest-index error %q", workers, err, "early")
		}
		if len(ran) != 5 {
			t.Errorf("workers=%d: ran %d of 5 indices after a failure: %v", workers, len(ran), ran)
		}
	}
}

// TestTablesWrapKeepsTypedFault: when a table generator fails, the
// Tables() loop wraps the error with the table name using %w — the typed
// resilience fault underneath must stay reachable so macro callers can
// distinguish an injected transient blackout from a logic error.
func TestTablesWrapKeepsTypedFault(t *testing.T) {
	s := newTestSuite(t)
	inj := s.Sys.InjectFaults(77, pibe.FaultRates{Measure: 1}, 0)
	defer s.Sys.InjectFaults(0, pibe.FaultRates{}, 0)
	_, err := s.AllTables()
	if err == nil {
		t.Fatal("measurement blackout did not fail table generation")
	}
	if inj.Total() == 0 {
		t.Fatal("no faults fired; the scenario tested nothing")
	}
	if !strings.HasPrefix(err.Error(), "table ") {
		t.Errorf("wrap lost the table context: %q", err)
	}
	fe, ok := resilience.AsFault(err)
	if !ok {
		t.Fatalf("error chain %v lost the typed fault", err)
	}
	if fe.Kind != resilience.KindTransient {
		t.Errorf("fault kind = %v, want transient (injected measure fault)", fe.Kind)
	}
	if !errors.Is(err, fe) {
		t.Error("errors.Is cannot find the fault in the chain")
	}
}
