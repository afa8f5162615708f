// Package jumpswitch models JumpSwitches (Amit, Jacobs, Wei — USENIX ATC
// 2019), the runtime indirect-call-promotion baseline PIBE is compared
// against in §8.2 of the paper.
//
// A jump switch replaces an indirect call with an out-of-line compare
// chain over targets learned at runtime, falling back to a retpoline for
// unlearned targets. The mechanism must periodically re-enter a learning
// state — especially for multi-target sites — during which the call is
// reconverted into a retpoline that observes targets, and the chain is
// then live-patched (an RCU-synchronized operation). Three properties
// make it slower than PIBE's static promotion:
//
//   - the switch lives out of line, costing an extra jump per dispatch;
//   - multi-target sites periodically drop back to learning retpolines;
//   - patching costs synchronization every time the chain is updated.
package jumpswitch

import (
	"sort"

	"repro/internal/ir"
)

// Params tunes the runtime mechanism.
type Params struct {
	// MaxTargets is the number of entries a switch holds (the paper's
	// implementation tracks a small fixed number; 6 here).
	MaxTargets int
	// CompareCost is the cost of one compare+branch in the chain.
	CompareCost int64
	// DispatchJumpCost is the extra jump to the out-of-line switch.
	DispatchJumpCost int64
	// RetpolineCost is the fallback/learning dispatch cost.
	RetpolineCost int64
	// RelearnPeriod is how many executions a multi-target site runs in
	// switch mode before being put back into learning mode.
	RelearnPeriod int
	// LearnLength is how many executions a learning episode lasts.
	LearnLength int
	// PatchCost is charged when a switch is (re)installed: live
	// patching under RCU synchronization.
	PatchCost int64
}

// DefaultParams returns values calibrated so that, on an LMBench-like
// indirect-call mix, JumpSwitches lands between unoptimized retpolines
// and PIBE's static promotion (Table 3: 20.2% vs 5.0% vs 1.3%).
func DefaultParams() Params {
	return Params{
		MaxTargets:       6,
		CompareCost:      2,
		DispatchJumpCost: 2,
		RetpolineCost:    21,
		RelearnPeriod:    4096,
		LearnLength:      128,
		PatchCost:        256,
	}
}

type siteState struct {
	installed []int32         // learned targets, hottest first
	observed  map[int32]int64 // counts seen during learning
	learning  bool
	execs     int // executions since last mode change
	multi     bool
}

// Runtime is the per-kernel jump-switch state machine. It implements
// interp.ICallHook (structurally; the interface lives in interp).
type Runtime struct {
	P     Params
	sites map[ir.SiteID]*siteState

	// Stats
	ChainHits    int64
	ChainMisses  int64
	LearningHits int64
	Patches      int64
}

// New returns a Runtime managing every unhardened indirect call site it
// encounters, all starting in learning mode.
func New(p Params) *Runtime {
	return &Runtime{P: p, sites: make(map[ir.SiteID]*siteState)}
}

// Handle implements the engines' indirect-call hook. It returns the
// dispatch cost of the call at site landing on target; the engine then
// charges the call itself.
func (r *Runtime) Handle(site ir.SiteID, target int32) (cycles int64) {
	s := r.sites[site]
	if s == nil {
		s = &siteState{learning: true, observed: make(map[int32]int64)}
		r.sites[site] = s
	}
	s.execs++
	if s.learning {
		r.LearningHits++
		cycles = r.P.RetpolineCost
		s.observed[target]++
		if len(s.observed) > 1 {
			s.multi = true
		}
		if s.execs >= r.P.LearnLength {
			cycles += r.install(s)
		}
		return cycles
	}
	// Switch mode: walk the chain.
	cycles = r.P.DispatchJumpCost
	for _, t := range s.installed {
		cycles += r.P.CompareCost
		if t == target {
			r.ChainHits++
			r.maybeRelearn(s)
			return cycles
		}
	}
	// Miss: fall back to the retpoline and remember the new target.
	r.ChainMisses++
	cycles += r.P.RetpolineCost
	s.observed[target]++
	if len(s.observed) > 1 || len(s.installed) > 0 {
		s.multi = true
	}
	r.maybeRelearn(s)
	return cycles
}

func (r *Runtime) maybeRelearn(s *siteState) {
	// Multi-target sites are periodically downgraded to learning
	// retpolines so the chain can adapt — the behaviour the paper
	// identifies as JumpSwitches' weakness on kernels where most hot
	// indirect calls are multi-targeted (Table 4).
	if s.multi && s.execs >= r.P.RelearnPeriod {
		s.learning = true
		s.execs = 0
		s.observed = make(map[int32]int64)
	}
}

// install patches the site's chain with its hottest observed targets
// and returns the patching cost.
func (r *Runtime) install(s *siteState) int64 {
	type tc struct {
		t int32
		n int64
	}
	var ts []tc
	for t, n := range s.observed {
		ts = append(ts, tc{t, n})
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].n != ts[j].n {
			return ts[i].n > ts[j].n
		}
		return ts[i].t < ts[j].t
	})
	if len(ts) > r.P.MaxTargets {
		ts = ts[:r.P.MaxTargets]
	}
	s.installed = s.installed[:0]
	for _, e := range ts {
		s.installed = append(s.installed, e.t)
	}
	s.learning = false
	s.execs = 0
	r.Patches++
	return r.P.PatchCost
}

// ManagedSites returns how many indirect call sites the runtime has seen.
func (r *Runtime) ManagedSites() int { return len(r.sites) }
