package bench

import (
	"fmt"

	pibe "repro"
	"repro/internal/attack"
	"repro/internal/cpu"
)

// Ablations exercises the design decisions DESIGN.md §5 calls out,
// reporting the LMBench geomean (all defenses) for each variant so the
// contribution of every mechanism is visible in isolation:
//
//	D1  greedy hottest-first order   vs LLVM bottom-up order
//	D2  Rule 2 caller budget         vs disabled
//	D3  Rule 3 callee cap            vs disabled
//	D4  unbounded promoted targets   vs classic top-1 / top-2 ICP
//	D5  constant-ratio inheritance   vs no inherited candidates
//	D6  static promotion             vs JumpSwitches runtime patching
//	§6.4 return retpolines           vs RSB refilling
func (s *Suite) Ablations() (*Table, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablations",
		Title:  "Design-decision ablations (LMBench geomean, all defenses unless noted)",
		Header: []string{"variant", "geomean", "decision"},
	}
	full := pibe.OptimizeConfig{ICPBudget: BudgetICP, InlineBudget: 0.999999, LaxBudget: 0.99}

	add := func(label, decision string, cfg pibe.BuildConfig) error {
		lat, err := s.Latencies(cfg)
		if err != nil {
			return err
		}
		ovs := overheads(base, lat)
		t.Rows = append(t.Rows, []string{label, pct(ovs[len(ovs)-1]), decision})
		return nil
	}
	mk := func(mut func(*pibe.OptimizeConfig)) pibe.BuildConfig {
		o := full
		mut(&o)
		return pibe.BuildConfig{Profile: s.ProfLM, Defenses: pibe.AllDefenses, Optimize: o}
	}

	if err := add("PIBE (full)", "reference",
		mk(func(o *pibe.OptimizeConfig) {})); err != nil {
		return nil, err
	}
	if err := add("LLVM bottom-up inline order", "D1: hottest-first order",
		pibe.BuildConfig{Profile: s.ProfLM, Defenses: pibe.AllDefenses,
			Optimize: pibe.OptimizeConfig{InlineBudget: 0.999999, UseLLVMInliner: true}}); err != nil {
		return nil, err
	}
	if err := add("Rule 2 disabled", "D2: caller complexity budget",
		mk(func(o *pibe.OptimizeConfig) { o.LaxBudget = 0; o.DisableRule2 = true })); err != nil {
		return nil, err
	}
	if err := add("Rule 3 disabled", "D3: callee complexity cap",
		mk(func(o *pibe.OptimizeConfig) { o.LaxBudget = 0; o.DisableRule3 = true })); err != nil {
		return nil, err
	}
	if err := add("both rules active (no lax)", "D2+D3 baseline",
		mk(func(o *pibe.OptimizeConfig) { o.LaxBudget = 0 })); err != nil {
		return nil, err
	}
	if err := add("ICP capped at 1 target/site", "D4: unbounded promotion",
		mk(func(o *pibe.OptimizeConfig) { o.MaxICPTargets = 1 })); err != nil {
		return nil, err
	}
	if err := add("ICP capped at 2 targets/site", "D4: unbounded promotion",
		mk(func(o *pibe.OptimizeConfig) { o.MaxICPTargets = 2 })); err != nil {
		return nil, err
	}
	if err := add("no inherited candidates", "D5: constant-ratio heuristic",
		mk(func(o *pibe.OptimizeConfig) { o.DisableInheritance = true })); err != nil {
		return nil, err
	}
	if err := add("JumpSwitches (retpolines only)", "D6: static vs runtime",
		pibe.BuildConfig{Defenses: pibe.Defenses{Retpolines: true}, JumpSwitches: true}); err != nil {
		return nil, err
	}

	// §6.4: RSB refilling vs return retpolines, backward edge only.
	if err := add("return retpolines (no opt)", "§6.4",
		pibe.BuildConfig{Defenses: pibe.Defenses{RetRetpolines: true}}); err != nil {
		return nil, err
	}
	if err := add("RSB refilling (no opt)", "§6.4",
		pibe.BuildConfig{Defenses: pibe.Defenses{RSBRefill: true}}); err != nil {
		return nil, err
	}

	// The security half of the §6.4 argument: refilling only stops
	// user-mode pollution.
	m := cpu.New(cpu.DefaultParams())
	user := attack.Ret2specUnderRefill(m, attack.PoisonFromUserspace)
	m2 := cpu.New(cpu.DefaultParams())
	spec := attack.Ret2specUnderRefill(m2, attack.PoisonSpeculatively)
	t.Notes = append(t.Notes,
		fmt.Sprintf("RSB refilling security: %s -> vulnerable=%v; %s -> vulnerable=%v (return retpolines stop both)",
			attack.PoisonFromUserspace, user.Vulnerable, attack.PoisonSpeculatively, spec.Vulnerable))
	return t, nil
}
