package bench

import (
	"fmt"

	pibe "repro"
	"repro/internal/workload"
)

// Table7 reproduces Table 7: application-benchmark throughput degradation
// (Nginx, Apache, DBench) per defense configuration, unoptimized vs PIBE.
//
// Throughput is modelled as requests/second: each request spends a fixed
// amount of userspace cycles (constant across kernel configurations,
// derived from the app's kernel share on the LTO baseline) plus the
// measured kernel cycles for its syscall script. PIBE images are
// optimized with an LMBench training workload, as in the paper.
func (s *Suite) Table7() (*Table, error) {
	t := &Table{
		ID:     "7",
		Title:  "Throughput degradation vs LTO baseline (optimized with LMBench profile)",
		Header: []string{"benchmark", "configuration", "vanilla", "no-opt", "PIBE"},
		Notes: []string{
			"paper nginx all-defenses: -51.7% / -6.0%; apache: -39.3% / -7.9%; dbench: -45.6% / -6.7%",
		},
	}
	apps := []pibe.Workload{pibe.Nginx, pibe.Apache, pibe.DBench}
	defCfgs := []struct {
		label string
		d     pibe.Defenses
	}{
		{"w/retpolines", pibe.Defenses{Retpolines: true}},
		{"w/ret-retpolines", pibe.Defenses{RetRetpolines: true}},
		{"w/LVI-CFI", pibe.Defenses{LVICFI: true}},
		{"w/all-defenses", pibe.AllDefenses},
	}
	// The LTO baseline first, then each defense's no-opt and PIBE
	// configurations.
	cfgs := []pibe.BuildConfig{{}}
	for _, dc := range defCfgs {
		optCfg := s.cfgOptimal(dc.d)
		if dc.label == "w/retpolines" {
			optCfg.Optimize = pibe.OptimizeConfig{ICPBudget: BudgetICP}
		}
		cfgs = append(cfgs, pibe.BuildConfig{Defenses: dc.d}, optCfg)
	}
	// kern[i][a] is the kernel cycles per request of cfgs[i] on apps[a].
	kern := make([][]float64, len(cfgs))
	if err := s.eachImage(cfgs, func(i int, img *pibe.Image) error {
		kern[i] = make([]float64, len(apps))
		for a, app := range apps {
			var err error
			if kern[i][a], err = img.MeasureRequestCycles(app); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for a, app := range apps {
		baseKern := kern[0][a]
		share := workload.UserShare(app)
		userCycles := baseKern * share / (1 - share)
		ghz := pibe.CPUFrequencyGHz()
		throughput := func(kern float64) float64 {
			return ghz * 1e9 / (kern + userCycles)
		}
		baseTp := throughput(baseKern)
		unit := "req/sec"
		if app == pibe.DBench {
			unit = "MB/sec"
		}
		for i, dc := range defCfgs {
			vanilla := ""
			if i == 0 {
				vanilla = fmt.Sprintf("%.0f %s", baseTp, unit)
			}
			t.Rows = append(t.Rows, []string{
				app.String(), dc.label, vanilla,
				pct(throughput(kern[1+2*i][a])/baseTp - 1),
				pct(throughput(kern[2+2*i][a])/baseTp - 1),
			})
		}
	}
	return t, nil
}

// tableGen is one experiment of the paper's evaluation, by its table
// number (or name).
type tableGen struct {
	id string
	fn func() (*Table, error)
}

// tables lists every experiment in paper order.
func (s *Suite) tables() []tableGen {
	return []tableGen{
		{"1", s.Table1}, {"2", s.Table2}, {"3", s.Table3}, {"4", s.Table4},
		{"5", s.Table5}, {"6", s.Table6}, {"7", s.Table7},
		{"robustness", s.Robustness},
		{"8", s.Table8}, {"9", s.Table9}, {"10", s.Table10},
		{"11", s.Table11}, {"12", s.Table12},
		{"ablations", s.Ablations},
	}
}

// AllTables runs every experiment in paper order.
func (s *Suite) AllTables() ([]*Table, error) {
	var out []*Table
	for _, g := range s.tables() {
		t, err := g.fn()
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", g.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// TableByID runs one experiment by its paper table number (or
// "robustness" or "ablations").
func (s *Suite) TableByID(id string) (*Table, error) {
	for _, g := range s.tables() {
		if g.id == id {
			return g.fn()
		}
	}
	return nil, fmt.Errorf("bench: unknown table %q (1-12, robustness, ablations)", id)
}
