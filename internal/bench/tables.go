package bench

import (
	"fmt"
	"strconv"
	"strings"

	pibe "repro"
	"repro/internal/prof"
)

// cfgAllDefNoOpt is the unoptimized comprehensive-defense configuration.
func cfgAllDefNoOpt() pibe.BuildConfig {
	return pibe.BuildConfig{Defenses: pibe.AllDefenses}
}

// cfgOptimal is PIBE's best configuration for a defense set ("lax
// heuristics": 99.9999% budget with size heuristics disabled within the
// 99% budget).
func (s *Suite) cfgOptimal(d pibe.Defenses) pibe.BuildConfig {
	return pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: d,
		Optimize: pibe.OptimizeConfig{ICPBudget: BudgetICP, InlineBudget: 0.999999, LaxBudget: 0.99},
	}
}

// Table2 reproduces Table 2: the LTO and PIBE baselines.
func (s *Suite) Table2() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	pb, err := s.Latencies(s.cfgOptimal(pibe.Defenses{}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "2",
		Title:  "Baselines: LTO vs PIBE-optimized (no defenses), latency in µs",
		Header: []string{"test", "LTO (µs)", "PIBE (µs)", "overhead"},
		Notes:  []string{"paper geomean: -6.6%"},
	}
	ovs := overheads(base, pb)
	for i := range base {
		t.Rows = append(t.Rows, []string{base[i].Bench, us(base[i].Micros), us(pb[i].Micros), pct(ovs[i])})
	}
	t.Rows = append(t.Rows, []string{"GEOMEAN", "-", "-", pct(ovs[len(ovs)-1])})
	return t, nil
}

// table3Benches is the retpoline-sensitive subset the paper's Table 3
// reports.
var table3Benches = []string{
	"null", "read", "write", "open", "stat", "fstat",
	"select_tcp", "udp", "tcp", "tcp_conn", "af_unix", "pipe",
}

// Table3 reproduces Table 3: retpoline overhead — unoptimized vs
// JumpSwitches vs static promotion at two budgets.
func (s *Suite) Table3() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	retp := pibe.Defenses{Retpolines: true}
	cols := []pibe.BuildConfig{
		{Defenses: retp},
		{Defenses: retp, JumpSwitches: true},
		{Profile: s.ProfLM, Defenses: retp, Optimize: pibe.OptimizeConfig{ICPBudget: 0.99}},
		{Profile: s.ProfLM, Defenses: retp, Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999}},
	}
	t := &Table{
		ID:     "3",
		Title:  "Retpoline overhead vs LTO baseline",
		Header: []string{"test", "LTO w/retp", "JumpSwitches", "+icp (99%)", "+icp (99.999%)"},
		Notes:  []string{"paper geomeans: 20.2% / 5.0% / 3.9% / 1.3%"},
	}
	baseIdx := indexLat(base)
	all := make([][]float64, len(cols))
	if err := s.ForEach(len(cols), func(i int) error {
		lat, err := s.Latencies(cols[i])
		if err != nil {
			return err
		}
		idx := indexLat(lat)
		ovs := make([]float64, 0, len(table3Benches))
		for _, b := range table3Benches {
			ovs = append(ovs, pibe.Overhead(baseIdx[b], idx[b]))
		}
		all[i] = ovs
		return nil
	}); err != nil {
		return nil, err
	}
	for i, b := range table3Benches {
		row := []string{b}
		for _, ovs := range all {
			row = append(row, pct(ovs[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"GEOMEAN"}
	for _, ovs := range all {
		gm = append(gm, pct(pibe.Geomean(ovs)))
	}
	t.Rows = append(t.Rows, gm)
	return t, nil
}

// Table4 reproduces Table 4: indirect call sites by number of observed
// targets.
func (s *Suite) Table4() (*Table, error) {
	dist := s.ProfLM.TargetDistribution()
	t := &Table{
		ID:     "4",
		Title:  "Indirect calls by number of targets invoked (LMBench profile)",
		Header: []string{"targets", "1", "2", "3", "4", "5", "6", ">6"},
		Notes:  []string{"paper: 517 / 109 / 34 / 23 / 6 / 12 / 22"},
	}
	row := []string{"indirect calls"}
	for k := 1; k <= 7; k++ {
		row = append(row, n(dist[k]))
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}

// table5Cols are the configurations of Table 5, all with every defense
// enabled.
func (s *Suite) table5Cols() []pibe.BuildConfig {
	mk := func(inl, lax float64) pibe.BuildConfig {
		return pibe.BuildConfig{
			Profile:  s.ProfLM,
			Defenses: pibe.AllDefenses,
			Optimize: pibe.OptimizeConfig{ICPBudget: BudgetICP, InlineBudget: inl, LaxBudget: lax},
		}
	}
	return []pibe.BuildConfig{
		cfgAllDefNoOpt(),
		{Profile: s.ProfLM, Defenses: pibe.AllDefenses, Optimize: pibe.OptimizeConfig{ICPBudget: BudgetICP}},
		mk(0.99, 0),
		mk(0.999, 0),
		mk(0.999999, 0),
		mk(0.999999, 0.99),
	}
}

// Table5 reproduces Table 5: comprehensive defenses across optimization
// configurations.
func (s *Suite) Table5() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	cols := s.table5Cols()
	t := &Table{
		ID:    "5",
		Title: "Overhead with all defenses, per optimization configuration",
		Header: []string{"test", "no-opt", "+icp(99.999%)", "+inl(99%)",
			"+inl(99.9%)", "+inl(99.9999%)", "lax heuristics"},
		Notes: []string{"paper geomeans: 149.1% / 133.1% / 28.0% / 15.9% / 12.7% / 10.6%"},
	}
	all := make([][]float64, len(cols))
	if err := s.ForEach(len(cols), func(i int) error {
		lat, err := s.Latencies(cols[i])
		if err != nil {
			return err
		}
		all[i] = overheads(base, lat)
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range base {
		row := []string{base[i].Bench}
		for _, ovs := range all {
			row = append(row, pct(ovs[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"GEOMEAN"}
	for _, ovs := range all {
		gm = append(gm, pct(ovs[len(ovs)-1]))
	}
	t.Rows = append(t.Rows, gm)
	return t, nil
}

// Table6 reproduces Table 6: per-defense geomean, unoptimized vs PIBE.
func (s *Suite) Table6() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "6",
		Title:  "LMBench geomean overhead per defense",
		Header: []string{"defense", "LTO", "PIBE"},
		Notes:  []string{"paper: none 0/-6.6, retpolines 20.2/1.3, ret-retpolines 63.4/3.7, LVI-CFI 61.9/1.8, all 149.1/10.6"},
	}
	rows := []struct {
		name string
		d    pibe.Defenses
	}{
		{"none", pibe.Defenses{}},
		{"retpolines", pibe.Defenses{Retpolines: true}},
		{"return retpolines", pibe.Defenses{RetRetpolines: true}},
		{"LVI-CFI", pibe.Defenses{LVICFI: true}},
		{"all", pibe.AllDefenses},
	}
	type pair struct{ lto, pibe float64 }
	res := make([]pair, len(rows))
	if err := s.ForEach(len(rows), func(i int) error {
		r := rows[i]
		var ltoCfg pibe.BuildConfig
		ltoCfg.Defenses = r.d
		pc := s.cfgOptimal(r.d)
		if r.name == "retpolines" {
			// For the retpolines-only configuration the paper applies
			// only indirect call promotion.
			pc.Optimize = pibe.OptimizeConfig{ICPBudget: BudgetICP}
		}
		ltoLat, err := s.Latencies(ltoCfg)
		if err != nil {
			return err
		}
		pibeLat, err := s.Latencies(pc)
		if err != nil {
			return err
		}
		lo := overheads(base, ltoLat)
		po := overheads(base, pibeLat)
		res[i] = pair{lo[len(lo)-1], po[len(po)-1]}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, pct(res[i].lto), pct(res[i].pibe)})
	}
	return t, nil
}

// statsBudgets are the three budgets Tables 8–11 report.
var statsBudgets = []float64{0.99, 0.999, 0.999999}

// budgetCfg is the configuration with defenses d and the same budget b
// for promotion and inlining, as Tables 8–12 use.
func (s *Suite) budgetCfg(d pibe.Defenses, b float64) pibe.BuildConfig {
	return pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: d,
		Optimize: pibe.OptimizeConfig{ICPBudget: b, InlineBudget: b},
	}
}

// budgetRows builds the all-defenses image at each of statsBudgets in
// parallel and renders t's rows, one from each image: the budget's
// label, then cells(img).
func (s *Suite) budgetRows(t *Table, cells func(img *pibe.Image) []string) error {
	cfgs := make([]pibe.BuildConfig, len(statsBudgets))
	for i, b := range statsBudgets {
		cfgs[i] = s.budgetCfg(pibe.AllDefenses, b)
	}
	t.Rows = make([][]string, len(cfgs))
	return s.eachImage(cfgs, func(i int, img *pibe.Image) error {
		t.Rows[i] = append([]string{BudgetLabel(statsBudgets[i])}, cells(img)...)
		return nil
	})
}

// Table8 reproduces Table 8: gadgets eliminated per budget.
func (s *Suite) Table8() (*Table, error) {
	t := &Table{
		ID:    "8",
		Title: "Indirect branch gadgets eliminated by PIBE per budget",
		Header: []string{"budget", "icall weight", "call sites", "call targets",
			"return weight", "return sites"},
		Notes: []string{"paper at 99%: 98.8% weight, 17.2% sites, 12.3% return sites; at 99.9999%: 100%/89.7%/86.1%"},
	}
	if err := s.budgetRows(t, func(img *pibe.Image) []string {
		icpR, inlR := img.Opt.ICP, img.Opt.Inline
		return []string{
			fmt.Sprintf("%s %s", u64(icpR.PromotedWeight), frac(icpR.PromotedWeight, icpR.TotalWeight)),
			fmt.Sprintf("%d %s", icpR.PromotedSites, frac(uint64(icpR.PromotedSites), uint64(icpR.CandidateSites))),
			fmt.Sprintf("%d %s", icpR.PromotedTargets, frac(uint64(icpR.PromotedTargets), uint64(icpR.CandidateTargets))),
			fmt.Sprintf("%s %.1f%%", u64(inlR.InlinedWeight), 100*inlR.ElidedReturnFraction()),
			fmt.Sprintf("%d %s", inlR.Inlined, frac(uint64(inlR.Inlined), uint64(inlR.Candidates))),
		}
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// Table9 reproduces Table 9: inlining weight blocked by each size
// heuristic.
func (s *Suite) Table9() (*Table, error) {
	t := &Table{
		ID:     "9",
		Title:  "Weight not elided by the inliner, per inhibitor",
		Header: []string{"budget", "overall", "Rule 2", "Rule 3", "other"},
		Notes:  []string{"paper at 99.9999%: Rule2 0.96%, Rule3 3.41%, other 1.9%"},
	}
	if err := s.budgetRows(t, func(img *pibe.Image) []string {
		r := img.Opt.Inline
		ov := float64(r.OverallWeight)
		pc := func(x int64) string {
			if ov == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%dm %.2f%%", x, 100*float64(x)/ov)
		}
		return []string{
			u64(r.OverallWeight),
			pc(r.BlockedRule2Weight), pc(r.BlockedRule3Weight), pc(r.BlockedOtherWeight),
		}
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// Table10 reproduces Table 10: optimization candidates relative to the
// total static indirect branch census.
func (s *Suite) Table10() (*Table, error) {
	t := &Table{
		ID:     "10",
		Title:  "Promotion/inlining candidates vs total kernel branches",
		Header: []string{"budget", "icalls total", "icp candidates", "call sites total", "inline candidates"},
		Notes:  []string{"paper: icp 0.59-3.09% of 20927; inlining 1.14-7.5% of ~133k"},
	}
	if err := s.budgetRows(t, func(img *pibe.Image) []string {
		st := img.Stats()
		icpR, inlR := img.Opt.ICP, img.Opt.Inline
		// Candidates processed under this budget: promoted sites for
		// icp, attempted sites for inlining.
		return []string{
			n(st.IndirectCalls),
			fmt.Sprintf("%d (%s)", icpR.PromotedSites, frac(uint64(icpR.PromotedSites), uint64(st.IndirectCalls))),
			n(st.DirectCalls),
			fmt.Sprintf("%d (%s)", inlR.Candidates, frac(uint64(inlR.Candidates), uint64(st.DirectCalls))),
		}
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// Table11 reproduces Table 11: forward edges protected/vulnerable.
func (s *Suite) Table11() (*Table, error) {
	t := &Table{
		ID:     "11",
		Title:  "Forward edges protected vs vulnerable (all defenses)",
		Header: []string{"statistic", "no-opt", "99%", "99.9%", "99.9999%"},
		Notes:  []string{"paper: Def 20927→26066, Vuln ICalls 41→170, Vuln IJumps 5"},
	}
	cfgs := []pibe.BuildConfig{cfgAllDefNoOpt()}
	for _, b := range statsBudgets {
		cfgs = append(cfgs, s.budgetCfg(pibe.AllDefenses, b))
	}
	def := make([]string, 1+len(cfgs))
	vul := make([]string, 1+len(cfgs))
	jmp := make([]string, 1+len(cfgs))
	def[0], vul[0], jmp[0] = "Def. ICalls", "Vuln. ICalls", "Vuln. IJumps"
	if err := s.eachImage(cfgs, func(i int, img *pibe.Image) error {
		rep := img.SecurityReport()
		def[1+i] = n(img.Census.DefendedICalls)
		vul[1+i] = n(rep.ICallsSpectreV2)
		jmp[1+i] = n(rep.IJumpsSpectreV2)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, def, vul, jmp)
	return t, nil
}

// Table12 reproduces Table 12: image size growth per configuration.
func (s *Suite) Table12() (*Table, error) {
	t := &Table{
		ID:     "12",
		Title:  "Image size increase due to optimization",
		Header: []string{"config", "budget", "abs size (vs LTO)", "img size (vs no-opt)"},
		Notes: []string{
			"paper all-defenses: abs 8.1/13.8/36.8%, img 4.8/10.3/32.7%",
			"runtime slab/dynamic memory not modelled in this reproduction",
		},
	}
	type cfgRow struct {
		label   string
		d       pibe.Defenses
		budgets []float64
	}
	rows := []cfgRow{
		{"w/all-defenses", pibe.AllDefenses, []float64{0.99, 0.999, 0.999999}},
		{"w/retpolines", pibe.Defenses{Retpolines: true}, []float64{0.99999}},
		{"w/LVI-CFI", pibe.Defenses{LVICFI: true}, []float64{0.99, 0.999999}},
		{"w/ret-retpolines", pibe.Defenses{RetRetpolines: true}, []float64{0.99, 0.999999}},
	}
	// The LTO baseline first, then each row's no-opt configuration and
	// its budgets; the assembly loop below reads the sizes back in that
	// order.
	cfgs := []pibe.BuildConfig{{}}
	for _, r := range rows {
		cfgs = append(cfgs, pibe.BuildConfig{Defenses: r.d})
		for _, b := range r.budgets {
			cfgs = append(cfgs, s.budgetCfg(r.d, b))
		}
	}
	sizes := make([]int64, len(cfgs))
	if err := s.eachImage(cfgs, func(i int, img *pibe.Image) error {
		sizes[i] = img.Size()
		return nil
	}); err != nil {
		return nil, err
	}
	base, sizes := sizes[0], sizes[1:]
	for _, r := range rows {
		noopt := sizes[0]
		for i, b := range r.budgets {
			size := sizes[1+i]
			t.Rows = append(t.Rows, []string{
				r.label,
				BudgetLabel(b),
				pct(float64(size-base) / float64(base)),
				pct(float64(size-noopt) / float64(noopt)),
			})
		}
		sizes = sizes[1+len(r.budgets):]
	}
	return t, nil
}

// BudgetLabel renders a budget fraction as the paper writes it
// ("99.999%").
func BudgetLabel(b float64) string {
	v := strconv.FormatFloat(b*100, 'f', 6, 64)
	v = strings.TrimRight(v, "0")
	v = strings.TrimRight(v, ".")
	return v + "%"
}

// indexLat maps benchmark name to measured latency.
func indexLat(ls []pibe.Latency) map[string]float64 {
	m := make(map[string]float64, len(ls))
	for _, l := range ls {
		m[l.Bench] = l.Micros
	}
	return m
}

// Robustness reproduces §8.4: optimizing with the Apache profile and
// measuring LMBench, plus the default-LLVM-inliner comparison and the
// candidate-weight overlap.
func (s *Suite) Robustness() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "robustness",
		Title:  "Workload robustness (§8.4): LMBench geomean with all defenses",
		Header: []string{"configuration", "geomean"},
		Notes:  []string{"paper: matched profile 10.6%, Apache profile 22.5%, default LLVM inliner 100.2%, no-opt 149.1%"},
	}
	add := func(label string, cfg pibe.BuildConfig) error {
		lat, err := s.Latencies(cfg)
		if err != nil {
			return err
		}
		ovs := overheads(base, lat)
		t.Rows = append(t.Rows, []string{label, pct(ovs[len(ovs)-1])})
		return nil
	}
	if err := add("no optimization", cfgAllDefNoOpt()); err != nil {
		return nil, err
	}
	if err := add("LMBench profile (matched)", s.cfgOptimal(pibe.AllDefenses)); err != nil {
		return nil, err
	}
	apCfg := s.cfgOptimal(pibe.AllDefenses)
	apCfg.Profile = s.ProfApache
	if err := add("Apache profile (mismatched)", apCfg); err != nil {
		return nil, err
	}
	llvmCfg := pibe.BuildConfig{
		Profile:  s.ProfLM,
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{InlineBudget: 0.999999, UseLLVMInliner: true},
	}
	if err := add("default LLVM inliner", llvmCfg); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("candidate weight shared LMBench∩Apache at 99%% budget: icp %.0f%%, inlining %.0f%% (paper: 58%% / 67%%)",
			100*prof.CandidateOverlap(s.ProfLM.Raw(), s.ProfApache.Raw(), 0.99, true),
			100*prof.CandidateOverlap(s.ProfLM.Raw(), s.ProfApache.Raw(), 0.99, false)))
	return t, nil
}
