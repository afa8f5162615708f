package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/ckpt"
)

// TestKneeTieBreakPrefersLowerBudget is the regression test for knee
// tie-breaking: when several cells with the same max and sum of budgets
// qualify, the knee is the one with the lower ICP budget — the geomean
// never participates in the ordering, so measurement noise between
// near-tied cells cannot flip the knee. The old comparator consulted
// the geomean before the individual budgets, which picked (0.5, 0) here
// because its overhead is marginally lower.
func TestKneeTieBreakPrefersLowerBudget(t *testing.T) {
	cfg := Config{Combos: []Combo{{Name: "c"}}, KneeFactor: 1.1}
	cells := []Cell{
		{Combo: "c", ICPBudget: 0.5, InlineBudget: 0.5, Geomean: 0.048},
		{Combo: "c", ICPBudget: 0.5, InlineBudget: 0, Geomean: 0.03},
		{Combo: "c", ICPBudget: 0, InlineBudget: 0.5, Geomean: 0.05},
	}
	for name, order := range map[string][]Cell{
		"given":    cells,
		"reversed": {cells[2], cells[1], cells[0]},
	} {
		ks := knees(cfg, order)
		if len(ks) != 1 {
			t.Fatalf("%s: knees = %+v, want 1", name, ks)
		}
		if ks[0].ICPBudget != 0 || ks[0].InlineBudget != 0.5 {
			t.Errorf("%s: knee = icp %v × inline %v, want the icp-cheaper (0, 0.5) cell",
				name, ks[0].ICPBudget, ks[0].InlineBudget)
		}
	}
}

// TestKneeExcludesFailedCells: a failed cell neither sets the combo's
// best factor nor qualifies as a knee, and a combo whose every cell
// failed yields no knee at all.
func TestKneeExcludesFailedCells(t *testing.T) {
	cfg := Config{Combos: []Combo{{Name: "c"}, {Name: "d"}}, KneeFactor: 1.1}
	cells := []Cell{
		// The failed cell claims a geomean of 0 (the zero value); if it
		// leaked into the best-factor scan it would disqualify the others.
		{Combo: "c", ICPBudget: 0, InlineBudget: 0, Failed: true, Failure: "boom"},
		{Combo: "c", ICPBudget: 0.5, InlineBudget: 0.5, Geomean: 0.40},
		{Combo: "c", ICPBudget: 0.999, InlineBudget: 0.999, Geomean: 0.38},
		{Combo: "d", ICPBudget: 0, InlineBudget: 0, Failed: true, Failure: "boom"},
	}
	ks := knees(cfg, cells)
	if len(ks) != 1 || ks[0].Combo != "c" {
		t.Fatalf("knees = %+v, want exactly one for combo c", ks)
	}
	if ks[0].ICPBudget != 0.5 || ks[0].BestGeomean != 0.38 {
		t.Errorf("knee = %+v, want the 50%% cell against best 0.38", ks[0])
	}
}

// sweepStateConfig is the small grid the state tests sweep: one combo,
// 2x2 grid, 4 cells.
func sweepStateConfig(statePath string) Config {
	return Config{
		ICPGrid:    []float64{0, 0.999},
		InlineGrid: []float64{0, 0.999},
		Combos:     []Combo{{Name: "retpoline", Defenses: mustCombos("retpoline")[0].Defenses}},
		StatePath:  statePath,
		Warnf:      func(string, ...any) {},
	}
}

func mustCombos(s string) []Combo {
	cs, err := CombosByName(s)
	if err != nil {
		panic(err)
	}
	return cs
}

// stateRun is what the state tests share: one suite, the uninterrupted
// report of sweepStateConfig and the complete state file a checkpointed
// run of it leaves. Sweep cells are not cached, so sharing the suite
// changes no cell, and every resume below re-measures the cells its
// state file lacks.
type stateRun struct {
	s       *bench.Suite
	ref     *Report
	refJSON []byte
	state   []byte
}

var (
	stateOnce   sync.Once
	stateShared stateRun
	stateErr    error
)

func sharedStateRun(t *testing.T) stateRun {
	t.Helper()
	stateOnce.Do(func() { stateShared, stateErr = newStateRun(t.TempDir()) })
	if stateErr != nil {
		t.Fatalf("state tests' reference sweep: %v", stateErr)
	}
	return stateShared
}

func newStateRun(dir string) (r stateRun, err error) {
	if r.s, err = bench.NewSuiteKernel(pibe.KernelConfig{Seed: 5, ColdFuncs: 300}); err != nil {
		return r, err
	}
	r.s.Sys.SetMeasureWorkers(2)
	if r.ref, err = Run(r.s, sweepStateConfig("")); err != nil {
		return r, err
	}
	if r.refJSON, err = r.ref.WriteJSON(); err != nil {
		return r, err
	}
	path := filepath.Join(dir, "sweep.state")
	if _, err = Run(r.s, sweepStateConfig(path)); err != nil {
		return r, err
	}
	r.state, err = os.ReadFile(path)
	return r, err
}

// TestSweepStateResumeByteIdentical is the acceptance test of the
// tentpole: a sweep interrupted at an arbitrary point — simulated by
// truncating the state file at several byte offsets, including mid-cell
// torn writes — resumes past the surviving cells and emits a
// BENCH_sweep.json byte-identical to an uninterrupted run's. It also
// covers the degenerate resumes: a fully complete state file (nothing
// left to run) and an empty one (everything left to run).
func TestSweepStateResumeByteIdentical(t *testing.T) {
	r := sharedStateRun(t)
	s, refJSON, full := r.s, r.refJSON, r.state
	dir := t.TempDir()

	firstCell := bytes.Index(full, []byte("sec cell-"))
	if firstCell < 0 {
		t.Fatalf("state file has no cell sections:\n%s", full)
	}

	cuts := map[string]int{
		"no-cells":  firstCell,      // config survived, every cell lost
		"mid-cell":  firstCell + 40, // torn write inside the first cell frame
		"torn-tail": len(full) - 10, // last cell's frame torn
		"complete":  len(full),      // nothing to do on resume
	}
	for name, cut := range cuts {
		resumed := filepath.Join(dir, "resume-"+name+".state")
		if err := os.WriteFile(resumed, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := sweepStateConfig(resumed)
		rep, err := Run(s, cfg)
		if err != nil {
			t.Fatalf("%s: resumed Run: %v", name, err)
		}
		got, err := rep.WriteJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refJSON) {
			t.Errorf("%s: resumed BENCH_sweep.json differs from the uninterrupted run's:\n%s\n-- want --\n%s",
				name, got, refJSON)
		}
		// The resumed state file must itself be complete and strictly
		// valid: a second resume finds all cells done.
		secs, err := os.Open(resumed)
		if err != nil {
			t.Fatal(err)
		}
		parsed, rerr := ckpt.ReadSections(secs)
		secs.Close()
		if rerr != nil {
			t.Fatalf("%s: state file not strictly valid after resume: %v", name, rerr)
		}
		meta, cells, _ := parseState(parsed)
		if meta == nil || len(cells) != 4 || len(parsed) != 5 {
			t.Errorf("%s: resumed state holds %d sections for %d cells, want the config and 4 cells once each",
				name, len(parsed), len(cells))
		}
	}
}

// TestSweepStateTamperRejected: resuming with flags that differ from the
// ones the state file was written under is refused — the config
// fingerprint gates resume, so cells from one sweep can never silently
// leak into another's report.
func TestSweepStateTamperRejected(t *testing.T) {
	r := sharedStateRun(t)
	s := r.s
	state := filepath.Join(t.TempDir(), "sweep.state")
	if err := os.WriteFile(state, r.state, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"knee-factor": func(c *Config) { c.KneeFactor = 1.2 },
		"grid":        func(c *Config) { c.ICPGrid = []float64{0, 0.5, 0.999} },
		"combos":      func(c *Config) { c.Combos = mustCombos("retpoline,all") },
		"timings":     func(c *Config) { c.Timings = true },
	} {
		cfg := sweepStateConfig(state)
		mutate(&cfg)
		if _, err := Run(s, cfg); err == nil {
			t.Errorf("%s: resume with changed config accepted, want fingerprint rejection", name)
		}
	}
	// A garbled config section (hash line bit-flipped, CRC re-framed so
	// the container itself is valid) is also rejected.
	secsF, err := os.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := ckpt.ReadSections(secsF)
	secsF.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		if secs[i].Name == stateConfigSection {
			data := bytes.Replace(secs[i].Data, []byte("hash "), []byte("hash f"), 1)
			secs[i].Data = data
		}
	}
	if err := ckpt.SaveAtomic(state, secs); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, sweepStateConfig(state)); err == nil {
		t.Error("resume with tampered config hash accepted, want rejection")
	}
}

// TestSweepStateFailedCellRerunOnResume: a failed cell persisted in the
// state file is given a fresh chance on resume (unlike successful
// cells, which are skipped), and the healthy rerun replaces it.
func TestSweepStateFailedCellRerunOnResume(t *testing.T) {
	r := sharedStateRun(t)
	s, refJSON := r.s, r.refJSON
	state := filepath.Join(t.TempDir(), "sweep.state")
	cfg := sweepStateConfig(state)

	// Hand-build a state file whose cell 0 is a failure record.
	cfg.fill()
	restored, w, err := openState(s.Seed, &cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("fresh state restored %d cells", len(restored))
	}
	fail := Cell{Combo: "retpoline", ICPBudget: 0, InlineBudget: 0,
		Failed: true, FailureKind: "transient", Failure: "injected for test"}
	if err := w.put(0, fail); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(s, sweepStateConfig(state))
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if rep.FailedCells != 0 {
		t.Errorf("FailedCells = %d after rerun, want 0", rep.FailedCells)
	}
	got, _ := rep.WriteJSON()
	if !bytes.Equal(got, refJSON) {
		t.Errorf("report after failed-cell rerun differs from reference:\n%s", got)
	}
	// The rerun replaces the failure record: the state file holds cell 0
	// once, and it is the healthy result.
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("sec cell-0 ")); n != 1 {
		t.Errorf("resumed state file holds cell 0 %d times, want once", n)
	}
	if bytes.Contains(data, []byte("injected for test")) {
		t.Error("resumed state file still holds the failure record")
	}
}

// FuzzSweepStateRead hammers the state-file parse path (lenient ckpt
// container read, then section decoding) with corrupt inputs: it must
// never panic, and whatever cells it does keep must be well-formed.
func FuzzSweepStateRead(f *testing.F) {
	// Seed with a real (hand-assembled, no suite needed) state file:
	// a config section plus two cells, one of them a failure record.
	cfg := sweepStateConfig("")
	cfg.fill()
	cell0, _ := json.Marshal(Cell{Combo: "retpoline", Geomean: 0.42})
	cell1, _ := json.Marshal(Cell{Combo: "retpoline", ICPBudget: 0.999,
		Failed: true, FailureKind: "transient", Failure: "boom"})
	var buf bytes.Buffer
	if err := ckpt.WriteSections(&buf, []ckpt.Section{
		{Name: stateConfigSection, Data: stateConfigData(5, &cfg, 4)},
		{Name: cellSectionName(0), Data: cell0},
		{Name: cellSectionName(1), Data: cell1},
	}); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("pibe-checkpoint v1\nsec sweep-config 4 deadbeef\nhash\nend 1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		secs, _, err := ckpt.ReadSectionsLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		meta, cells, _ := parseState(secs)
		if meta == nil {
			return
		}
		for i := range cells {
			if i < 0 || i >= meta.Cells {
				t.Fatalf("parseState kept out-of-range cell %d (grid %d)", i, meta.Cells)
			}
		}
	})
}
