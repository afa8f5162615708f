// Package sweep is the dense budget-grid engine behind `pibe sweep`: it
// evaluates every cell of an ICP×inline budget grid crossed with the
// four transient-defense combinations of the paper's evaluation, and
// reports the full overhead surface instead of the three spot budgets
// the individual tables use.
//
// The paper's headline claim is a curve, not a point — overhead falls
// from 149.1% to 10.6% as the optimization budgets sweep from 0% to
// 99.9% under all defenses (PIBE §8, Tables 1–2 and 5) — and the sweep
// reproduces that trajectory per defense combo, answers "which budget
// do I pick" with automatic knee-point detection, and emits both
// aligned text matrices and a machine-readable BENCH_sweep.json.
//
// Cells take the kernel, profile and baseline from a bench.Suite but
// build and measure through its System, not its Latencies cache, since
// a cell also reads its image's optimizer statistics: a cell keeps only
// its Cell, so its image is garbage once the cell returns and peak
// memory follows the worker count, not the grid size. Measurement
// inside a cell goes through the deterministic measurement driver
// (internal/workload).
// The report is a pure function of (kernel config, grid, combos): cells
// are assembled in grid order, not completion order, and every float in
// the JSON comes from the deterministic measurement path, so the
// emitted bytes are identical for every worker count. Wall-clock
// build times are the one exception; they are recorded only when
// Config.Timings is set (and are zero otherwise), which is why the
// default emission stays byte-reproducible.
//
// The default 343-cell grid runs in one process, about 75 s on two
// vCPUs, and the engine is crash-safe and degrades gracefully rather
// than being all-or-nothing:
//
//   - With Config.StatePath set, every completed cell is checkpointed:
//     the whole state file (internal/ckpt) is rewritten atomically, so
//     a SIGKILL at any point loses at most the cells in flight. A rerun
//     with the same path resumes by skipping completed cells — the
//     resumed BENCH_sweep.json is byte-identical to an uninterrupted
//     run's. Resume is gated on a fingerprint of the sweep
//     configuration; a state file from a different configuration is
//     rejected.
//   - A cell is built and measured once. Transient measurement faults
//     are retried only inside workload.Runner, where they are drawn; a
//     cell whose build or measurement still fails degrades instead of
//     aborting the sweep: the cell is marked failed in the report with
//     its structured fault, excluded from knee detection, and rendered
//     as a FAIL entry plus a per-combo warning note in the text
//     matrices.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/resilience"
)

// DefaultGrid is the default budget grid applied to both axes: the
// paper's 0-to-99.9999% trajectory densified around the knee region
// where the curve flattens.
var DefaultGrid = []float64{0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.999999}

// Combo names one defense combination of the sweep.
type Combo struct {
	Name     string
	Defenses pibe.Defenses
}

// DefaultCombos are the defense combinations crossed with the budget
// grid: the paper's four transient-defense rows (each Spectre-class
// defense alone, then all of them) plus the three post-2021 backends,
// whose cost shapes move the knee (see EXPERIMENTS.md).
func DefaultCombos() []Combo {
	return []Combo{
		{"retpoline", pibe.Defenses{Retpolines: true}},
		{"ret-retpoline", pibe.Defenses{RetRetpolines: true}},
		{"lvi-cfi", pibe.Defenses{LVICFI: true}},
		{"fineibt", pibe.Defenses{FineIBT: true}},
		{"pac-cfi", pibe.Defenses{PACCFI: true}},
		{"verifence", pibe.Defenses{VeriFence: true}},
		{"all", pibe.AllDefenses},
	}
}

// CombosByName resolves a comma-separated combo list ("retpoline,all")
// against DefaultCombos. Duplicate names are rejected: a repeated combo
// would silently double its cells in the result surface and break the
// byte-identical determinism contract.
func CombosByName(s string) ([]Combo, error) {
	all := DefaultCombos()
	known := make([]string, len(all))
	for i, c := range all {
		known[i] = c.Name
	}
	seen := make(map[string]bool)
	var out []Combo
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, resilience.Faultf(resilience.PhaseMeasure, resilience.KindConfig, "sweep-combos",
				"duplicate defense combo %q", name)
		}
		seen[name] = true
		found := false
		for _, c := range all {
			if c.Name == name {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sweep: unknown defense combo %q (have %s)", name, strings.Join(known, ", "))
		}
	}
	if len(out) == 0 {
		return all, nil
	}
	return out, nil
}

// ParseGrid parses a comma-separated budget grid given in percent
// ("0,50,90,99,99.9"). Values must be fractions of coverage in
// [0, 100); they are sorted ascending and deduplicated.
func ParseGrid(s string) ([]float64, error) {
	var grid []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(tok), "%"))
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad grid value %q: %w", tok, err)
		}
		if math.IsNaN(v) || v < 0 || v >= 100 {
			return nil, fmt.Errorf("sweep: grid value %v%% outside [0, 100)", v)
		}
		// Snap the percent-to-fraction division to 15 significant digits
		// so "99.9" becomes exactly 0.999 rather than 0.999000...01; the
		// budgets land verbatim in BENCH_sweep.json and in log labels,
		// where float noise would only confuse.
		f, _ := strconv.ParseFloat(strconv.FormatFloat(v/100, 'g', 15, 64), 64)
		grid = append(grid, f)
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	sort.Float64s(grid)
	uniq := grid[:1]
	for _, v := range grid[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq, nil
}

// ScaledKernelConfig maps the -sweep-kernel-scale factor onto a kernel
// configuration: scale 1 is the default calibrated kernel; scale S
// multiplies the cold driver corpus (ColdFuncs into the thousands) and
// adds S-1 helper layers (capped at 4 so hot stacks stay plausible),
// stressing the census tables at realistic scale.
func ScaledKernelConfig(seed int64, scale int) pibe.KernelConfig {
	cfg := pibe.KernelConfig{Seed: seed}
	if scale <= 1 {
		return cfg
	}
	cfg.ColdFuncs = 2200 * scale
	layers := scale - 1
	if layers > 4 {
		layers = 4
	}
	cfg.HelperLayers = layers
	return cfg
}

// Config parameterizes one sweep run.
type Config struct {
	// ICPGrid and InlineGrid are the budgets swept on each axis, as
	// fractions (0.999 for 99.9%). Empty selects DefaultGrid.
	ICPGrid, InlineGrid []float64
	// Combos are the defense combinations crossed with the grid; empty
	// selects DefaultCombos.
	Combos []Combo
	// KneeFactor is the slowdown-factor tolerance of knee detection:
	// the knee is the least aggressive cell whose slowdown factor
	// (1+geomean) is within KneeFactor of the combo's best. Zero means
	// the default 1.1; any other value must be a finite factor of at
	// least 1 (below 1 no cell, not even the best, qualifies).
	KneeFactor float64
	// Timings records wall-clock build times into the report. Off by
	// default because wall time is the only non-deterministic field:
	// without it BENCH_sweep.json is byte-identical across runs and
	// worker counts.
	Timings bool
	// ColdFuncs and HelperLayers record the kernel scaling of the suite
	// (sweep.ScaledKernelConfig) into the report and the state-file
	// fingerprint; zero means the default calibrated kernel.
	ColdFuncs, HelperLayers int
	// StatePath, when non-empty, checkpoints every completed cell into a
	// crash-safe state file and resumes from it when it already exists:
	// completed cells are skipped (failed ones are given another
	// chance), and the resumed report is byte-identical to an
	// uninterrupted run's. A state file whose config fingerprint does
	// not match this configuration is rejected.
	StatePath string
	// Warnf receives degradation warnings (a cell's geomean skipped
	// non-finite overheads or clamped factors, a failed cell, a salvaged
	// state file). Nil logs to stderr.
	Warnf func(format string, args ...any)
}

func (c *Config) fill() {
	if len(c.ICPGrid) == 0 {
		c.ICPGrid = DefaultGrid
	}
	if len(c.InlineGrid) == 0 {
		c.InlineGrid = DefaultGrid
	}
	if len(c.Combos) == 0 {
		c.Combos = DefaultCombos()
	}
	if c.KneeFactor == 0 {
		c.KneeFactor = 1.1
	}
	if c.Warnf == nil {
		c.Warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
}

// Cell is one evaluated (combo, icp, inline) grid point.
type Cell struct {
	Combo        string  `json:"combo"`
	ICPBudget    float64 `json:"icp_budget"`
	InlineBudget float64 `json:"inline_budget"`
	// Geomean is the LMBench geomean overhead versus the LTO baseline.
	Geomean float64 `json:"geomean_overhead"`
	// ICPWeightFrac is the fraction of candidate indirect-branch
	// weight eliminated by promotion; InlineReturnFrac the fraction of
	// profiled return weight elided by inlining.
	ICPWeightFrac    float64 `json:"icp_weight_eliminated"`
	InlineReturnFrac float64 `json:"inline_return_weight_elided"`
	// GeomeanSkipped/GeomeanClamped count aggregation repairs (see
	// workload.GeomeanStats); nonzero means this cell's curve point is
	// not a faithful summary of its per-benchmark overheads.
	GeomeanSkipped int `json:"geomean_skipped"`
	GeomeanClamped int `json:"geomean_clamped"`
	// BuildMS is the wall-clock image build time; recorded only under
	// Config.Timings (0 otherwise, keeping the report deterministic).
	BuildMS float64 `json:"build_ms"`
	// Failed marks a cell whose build or measurement failed (after
	// workload.Runner's own retries). Its overhead fields are zero, it
	// is excluded from knee detection, and the FailureXxx fields carry
	// the structured fault that sank it.
	Failed          bool   `json:"failed,omitempty"`
	FailurePhase    string `json:"failure_phase,omitempty"`
	FailureKind     string `json:"failure_kind,omitempty"`
	FailureInjected bool   `json:"failure_injected,omitempty"`
	Failure         string `json:"failure,omitempty"`
}

// Knee is the per-combo answer to "which budget do I pick": the least
// aggressive cell whose slowdown factor is within the knee factor of
// the combo's best cell.
type Knee struct {
	Combo        string  `json:"combo"`
	ICPBudget    float64 `json:"icp_budget"`
	InlineBudget float64 `json:"inline_budget"`
	Geomean      float64 `json:"geomean_overhead"`
	BestGeomean  float64 `json:"best_geomean"`
}

// Report is the machine-readable result of one sweep (BENCH_sweep.json).
type Report struct {
	Seed         int64     `json:"seed"`
	ColdFuncs    int       `json:"cold_funcs,omitempty"`
	HelperLayers int       `json:"helper_layers,omitempty"`
	ICPGrid      []float64 `json:"icp_grid"`
	InlineGrid   []float64 `json:"inline_grid"`
	KneeFactor   float64   `json:"knee_factor"`
	Combos       []string  `json:"combos"`
	// FailedCells counts cells that degraded to failure; their fault
	// detail is on the cells themselves.
	FailedCells int    `json:"failed_cells,omitempty"`
	Cells       []Cell `json:"cells"`
	Knees       []Knee `json:"knees"`
}

// cellKey addresses one grid point; the global cell index (grid order:
// combo, then ICP budget, then inline budget) is its position in the
// keys slice and the unit of checkpointing.
type cellKey struct {
	combo    int
	icp, inl int
}

func gridKeys(cfg *Config) []cellKey {
	keys := make([]cellKey, 0, len(cfg.Combos)*len(cfg.ICPGrid)*len(cfg.InlineGrid))
	for ci := range cfg.Combos {
		for ii := range cfg.ICPGrid {
			for li := range cfg.InlineGrid {
				keys = append(keys, cellKey{ci, ii, li})
			}
		}
	}
	return keys
}

// cellName is the log label of a cell.
func cellName(combo Combo, icp, inl float64) string {
	return fmt.Sprintf("sweep-%s-icp%g-inl%g", combo.Name, icp, inl)
}

// measureCell builds and measures one grid point.
func measureCell(s *bench.Suite, base []pibe.Latency, combo Combo, icp, inl float64, timings bool) (Cell, error) {
	start := time.Now()
	img, err := s.Sys.Build(pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: combo.Defenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: icp, InlineBudget: inl},
	})
	if err != nil {
		return Cell{}, err
	}
	buildMS := float64(time.Since(start).Nanoseconds()) / 1e6
	lat, err := img.MeasureLMBench(pibe.LMBench)
	if err != nil {
		return Cell{}, err
	}
	ovs := make([]float64, len(lat))
	for j := range lat {
		ovs[j] = pibe.Overhead(base[j].Micros, lat[j].Micros)
	}
	g, stats := pibe.GeomeanCounted(ovs)
	c := Cell{
		Combo:          combo.Name,
		ICPBudget:      icp,
		InlineBudget:   inl,
		Geomean:        g,
		GeomeanSkipped: stats.Skipped,
		GeomeanClamped: stats.Clamped,
	}
	if timings {
		c.BuildMS = buildMS
	}
	if r := img.Opt.ICP; r != nil && r.TotalWeight > 0 {
		c.ICPWeightFrac = float64(r.PromotedWeight) / float64(r.TotalWeight)
	}
	if r := img.Opt.Inline; r != nil {
		c.InlineReturnFrac = r.ElidedReturnFraction()
	}
	return c, nil
}

// evalCell runs one cell to completion: a cell whose build or
// measurement fails degrades to a failed Cell carrying the structured
// fault instead of an error — one poisoned grid point must not sink the
// whole sweep.
func evalCell(s *bench.Suite, cfg *Config, base []pibe.Latency, k cellKey) Cell {
	combo := cfg.Combos[k.combo]
	icp, inl := cfg.ICPGrid[k.icp], cfg.InlineGrid[k.inl]
	name := cellName(combo, icp, inl)
	c, err := measureCell(s, base, combo, icp, inl, cfg.Timings)
	if err != nil {
		c = Cell{Combo: combo.Name, ICPBudget: icp, InlineBudget: inl,
			Failed: true, Failure: err.Error()}
		if fe, ok := resilience.AsFault(err); ok {
			c.FailurePhase = string(fe.Phase)
			c.FailureKind = string(fe.Kind)
			c.FailureInjected = fe.Injected
		}
		cfg.Warnf("sweep: warning: cell %s failed, degrading: %v", name, err)
		return c
	}
	if c.GeomeanSkipped > 0 || c.GeomeanClamped > 0 {
		cfg.Warnf("sweep: warning: cell %s geomean degraded: skipped %d, clamped %d",
			name, c.GeomeanSkipped, c.GeomeanClamped)
	}
	return c
}

// Run evaluates the grid against the suite's kernel. Cells fan out
// across the suite's worker pool, failed cells degrade instead of
// aborting (see evalCell), and the report is assembled in deterministic
// grid order: combos in config order, then ICP budget, then inline
// budget. With Config.StatePath the run checkpoints each completed cell
// and resumes past completed ones.
func Run(s *bench.Suite, cfg Config) (*Report, error) {
	if k := cfg.KneeFactor; k != 0 && !(k >= 1 && !math.IsInf(k, 1)) {
		return nil, resilience.Faultf(resilience.PhaseMeasure, resilience.KindConfig, "sweep-knee",
			"knee factor %v is not a finite factor of at least 1", k)
	}
	cfg.fill()
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	keys := gridKeys(&cfg)
	var restored map[int]Cell
	var st *stateWriter
	if cfg.StatePath != "" {
		if restored, st, err = openState(s.Seed, &cfg, len(keys)); err != nil {
			return nil, err
		}
	}

	// Every cell runs except those restored from the state file; a
	// restored failed cell gets a fresh chance.
	cells := make([]Cell, len(keys))
	var work []int
	for i := range keys {
		if c, ok := restored[i]; ok && !c.Failed {
			cells[i] = c
			continue
		}
		work = append(work, i)
	}

	if err := s.ForEach(len(work), func(wi int) error {
		i := work[wi]
		cells[i] = evalCell(s, &cfg, base, keys[i])
		if st != nil {
			if err := st.put(i, cells[i]); err != nil {
				return fmt.Errorf("sweep: checkpoint cell %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:         s.Seed,
		ColdFuncs:    cfg.ColdFuncs,
		HelperLayers: cfg.HelperLayers,
		ICPGrid:      cfg.ICPGrid,
		InlineGrid:   cfg.InlineGrid,
		KneeFactor:   cfg.KneeFactor,
		Cells:        cells,
	}
	for _, c := range cfg.Combos {
		rep.Combos = append(rep.Combos, c.Name)
	}
	for _, c := range cells {
		if c.Failed {
			rep.FailedCells++
		}
	}
	rep.Knees = knees(cfg, rep.Cells)
	return rep, nil
}

// knees finds, per combo, the least aggressive cell whose slowdown
// factor (1+geomean) is within cfg.KneeFactor of the combo's best
// (lowest) factor. Failed cells are excluded from both the best-factor
// scan and the knee candidates. Factors rather than raw geomeans keep
// the comparison meaningful when the best overhead is negative (the
// PGO-only combos can beat the LTO baseline).
func knees(cfg Config, cells []Cell) []Knee {
	var out []Knee
	for _, combo := range cfg.Combos {
		best, bestGeomean := math.Inf(1), math.Inf(1)
		for _, c := range cells {
			if c.Combo == combo.Name && !c.Failed && 1+c.Geomean < best {
				best, bestGeomean = 1+c.Geomean, c.Geomean
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		kneeIdx := -1
		for i, c := range cells {
			if c.Combo != combo.Name || c.Failed || 1+c.Geomean > cfg.KneeFactor*best {
				continue
			}
			if kneeIdx < 0 || lessAggressive(c, cells[kneeIdx]) {
				kneeIdx = i
			}
		}
		if kneeIdx >= 0 {
			k := cells[kneeIdx]
			out = append(out, Knee{
				Combo:        k.Combo,
				ICPBudget:    k.ICPBudget,
				InlineBudget: k.InlineBudget,
				Geomean:      k.Geomean,
				BestGeomean:  bestGeomean,
			})
		}
	}
	return out
}

// lessAggressive is the total order knee selection minimizes over
// qualifying cells: max(icp, inline) ascending, then icp+inline, then
// (icp, inline) lexicographically. It compares budgets only — never the
// geomean — so when several equally-cheap cells qualify, the knee is
// deterministically the lower-budget cell, independent of grid
// iteration order and of measurement noise between near-tied cells.
func lessAggressive(a, b Cell) bool {
	am, bm := math.Max(a.ICPBudget, a.InlineBudget), math.Max(b.ICPBudget, b.InlineBudget)
	if am != bm {
		return am < bm
	}
	as, bs := a.ICPBudget+a.InlineBudget, b.ICPBudget+b.InlineBudget
	if as != bs {
		return as < bs
	}
	if a.ICPBudget != b.ICPBudget {
		return a.ICPBudget < b.ICPBudget
	}
	return a.InlineBudget < b.InlineBudget
}

// WriteJSON marshals the report as indented JSON (a trailing newline
// included). Marshaling is deterministic: field order is fixed by the
// struct definitions and cells are in grid order.
func (r *Report) WriteJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadReport parses a BENCH_sweep.json written by WriteJSON. Any JSON
// object parses into a Report, so it also checks that the cells are
// exactly the report's grid (see checkCells); anything else is not a
// sweep surface.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read report: %w", err)
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("sweep: parse report %s: %w", path, err)
	}
	if err := r.checkCells(); err != nil {
		return nil, fmt.Errorf("sweep: report %s: %w", path, err)
	}
	return r, nil
}

// checkCells reports whether the cells are exactly combos × ICP grid ×
// inline grid, each grid point once, and the grid is not empty.
func (r *Report) checkCells() error {
	type key struct {
		combo    string
		icp, inl float64
	}
	n := len(r.Combos) * len(r.ICPGrid) * len(r.InlineGrid)
	if n == 0 {
		return fmt.Errorf("empty grid (%d combos × %d ICP × %d inline budgets)",
			len(r.Combos), len(r.ICPGrid), len(r.InlineGrid))
	}
	seen := make(map[key]bool, n)
	for _, combo := range r.Combos {
		for _, icp := range r.ICPGrid {
			for _, inl := range r.InlineGrid {
				seen[key{combo, icp, inl}] = false
			}
		}
	}
	if len(seen) != n {
		return errors.New("grid repeats a combo or budget")
	}
	for _, c := range r.Cells {
		k := key{c.Combo, c.ICPBudget, c.InlineBudget}
		done, ok := seen[k]
		switch {
		case !ok:
			return fmt.Errorf("cell %s/%g/%g is not on the grid", c.Combo, c.ICPBudget, c.InlineBudget)
		case done:
			return fmt.Errorf("cell %s/%g/%g appears twice", c.Combo, c.ICPBudget, c.InlineBudget)
		}
		seen[k] = true
	}
	if len(r.Cells) != n {
		return fmt.Errorf("%d cells for a %d-cell grid", len(r.Cells), n)
	}
	return nil
}

// Tables renders one aligned text matrix per combo: rows are ICP
// budgets, columns inline budgets, cells the geomean overhead. The
// combo's knee cell is marked with '*' and restated in the notes.
// Failed cells render as FAIL and are restated — with their structured
// fault — in a per-combo warning note: degradation is surfaced, never
// silently averaged away.
func (r *Report) Tables() []*bench.Table {
	idx := make(map[string]Cell, len(r.Cells))
	for _, c := range r.Cells {
		idx[fmt.Sprintf("%s/%g/%g", c.Combo, c.ICPBudget, c.InlineBudget)] = c
	}
	kneeOf := make(map[string]Knee, len(r.Knees))
	for _, k := range r.Knees {
		kneeOf[k.Combo] = k
	}
	var out []*bench.Table
	for _, combo := range r.Combos {
		t := &bench.Table{
			ID:     "sweep-" + combo,
			Title:  fmt.Sprintf("Budget sweep, %s defenses: LMBench geomean overhead (icp ↓ × inline →)", combo),
			Header: []string{"icp \\ inline"},
		}
		for _, inl := range r.InlineGrid {
			t.Header = append(t.Header, bench.BudgetLabel(inl))
		}
		knee, hasKnee := kneeOf[combo]
		var failed []Cell
		for _, icp := range r.ICPGrid {
			row := []string{bench.BudgetLabel(icp)}
			for _, inl := range r.InlineGrid {
				c, ok := idx[fmt.Sprintf("%s/%g/%g", combo, icp, inl)]
				if !ok {
					row = append(row, "n/a")
					continue
				}
				if c.Failed {
					row = append(row, "FAIL")
					failed = append(failed, c)
					continue
				}
				cell := fmt.Sprintf("%+.1f%%", 100*c.Geomean)
				if hasKnee && knee.ICPBudget == icp && knee.InlineBudget == inl {
					cell += "*"
				}
				row = append(row, cell)
			}
			t.Rows = append(t.Rows, row)
		}
		if hasKnee {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"knee (*): icp %s × inline %s at %+.1f%% — least aggressive cell within %.2fx of the best %+.1f%%",
				bench.BudgetLabel(knee.ICPBudget), bench.BudgetLabel(knee.InlineBudget),
				100*knee.Geomean, r.KneeFactor, 100*knee.BestGeomean))
		}
		for _, c := range failed {
			detail := c.Failure
			if c.FailureKind != "" {
				detail = fmt.Sprintf("%s/%s", c.FailurePhase, c.FailureKind)
				if c.FailureInjected {
					detail += " [injected]"
				}
			}
			t.Notes = append(t.Notes, fmt.Sprintf(
				"warning: cell icp %s × inline %s FAILED (%s) — excluded from knee detection",
				bench.BudgetLabel(c.ICPBudget), bench.BudgetLabel(c.InlineBudget), detail))
		}
		out = append(out, t)
	}
	return out
}
