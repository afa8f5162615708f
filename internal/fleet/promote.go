package fleet

import (
	"fmt"
	"sort"

	"repro/internal/prof"
	"repro/internal/resilience"
)

// Promoter is the canary-gated promotion pipeline of a profile-driven
// control loop. The multi-tenant ingestion service (internal/ingest)
// runs one per tenant, and `pibe fleet` is its one-tenant case. The
// owner feeds it one step (round) at a time; the promoter watches the
// drift statistic, asks the Controller for a candidate when drift
// trips the threshold, walks the candidate through differential
// validation, a canary window, the latency-regression and
// new-fault-kind gates, and either promotes it (advancing the
// baseline) or rolls it back and arms the capped-backoff rebuild
// cool-down.
//
// Promoter is not safe for concurrent use; owners drive it from their
// barrier, like the Breaker it composes with.
type Promoter struct {
	cfg  PromoteConfig
	ctrl *Controller

	// baseline is the profile the incumbent image was built from; Step
	// measures drift against it and a promotion advances it to the
	// snapshot that drove the rebuild.
	baseline *prof.Profile

	canary    *canaryState
	strikes   int // consecutive rejections / failed rebuilds
	cooldown  int // steps left before the next rebuild attempt
	seenKinds map[string]bool
}

// PromoteConfig shapes one promotion pipeline.
type PromoteConfig struct {
	// DriftThreshold triggers a rebuild when the hot-set overlap the
	// owner reports falls below it; 0 disables drift-triggered rebuilds.
	DriftThreshold float64
	// CanarySteps is how many steps (counting the build step) a freshly
	// built candidate serves before the promotion decision (default 1).
	CanarySteps int
	// RegressionBudget is the relative canary-latency regression allowed
	// versus the incumbent before the candidate is rejected (0 means the
	// default 0.05; negative means no tolerance at all).
	RegressionBudget float64
}

// After the k-th consecutive rejected candidate or failed rebuild the
// promoter suppresses rebuilds for resilience.StepBackoff(k,
// cooldownBase, cooldownMax) steps: 1, 2, 4, 8, 16, 16, ...
const (
	cooldownBase = 1
	cooldownMax  = 16
)

func (c PromoteConfig) withDefaults() PromoteConfig {
	if c.CanarySteps <= 0 {
		c.CanarySteps = 1
	}
	switch {
	case c.RegressionBudget == 0:
		c.RegressionBudget = 0.05
	case c.RegressionBudget < 0:
		c.RegressionBudget = 0
	}
	return c
}

// Controller is the build side of the promotion pipeline. The promoter
// calls Rebuild when drift trips the threshold; the returned Candidate
// is validated, canaried and only then promoted.
type Controller struct {
	// Rebuild builds a candidate image from the drifted snapshot.
	// Returning an error counts as a failed rebuild (and a strike
	// toward the cool-down).
	Rebuild func(snap *prof.Profile) (*Candidate, error)
	// Incumbent, when non-nil, measures the serving image's canary
	// metric (e.g. geomean request latency); nil disables the latency
	// regression gate.
	Incumbent func() (float64, error)
}

// Candidate is one rebuilt image moving through the promotion gates.
// Nil fields skip their gate.
type Candidate struct {
	// Validate differentially validates the candidate against its
	// reference image (see internal/diffcheck); a non-nil error rejects
	// the candidate before it serves a single canary step.
	Validate func() error
	// Measure returns the candidate's canary metric, compared against
	// Controller.Incumbent under the regression budget.
	Measure func() (float64, error)
	// Promote activates the candidate as the serving image; it runs
	// only after every gate passed.
	Promote func() error
}

// canaryState tracks the candidate currently serving its canary window.
type canaryState struct {
	snap        *prof.Profile
	cand        *Candidate
	served      int
	kindsBefore map[string]bool
	newKinds    map[string]bool
}

// StepOutcome reports what one promotion step did; the zero value means
// "nothing happened" (no drift, or the pipeline is disabled).
type StepOutcome struct {
	// Rebuilt records that drift tripped the threshold and the
	// controller produced a candidate; RebuildErr carries a failed
	// build's error text (exactly one of the two is set on a rebuild
	// attempt).
	Rebuilt    bool
	RebuildErr string
	// Canary reports that a candidate served this step.
	Canary bool
	// Promoted records that the candidate passed every gate and the
	// baseline advanced; Rejected carries the reason it was rolled back
	// instead.
	Promoted bool
	Rejected string
	// CoolingDown, when non-zero, is how many cool-down steps remained
	// (counting this one) when drift was detected but the rebuild was
	// suppressed after recent strikes.
	CoolingDown int
}

// NewPromoter builds a promotion pipeline. baseline is the profile the
// incumbent image was built from (nil disables drift detection); ctrl
// supplies the rebuild hooks (nil disables rebuilds entirely — the
// promoter then only tracks fault kinds).
func NewPromoter(cfg PromoteConfig, ctrl *Controller, baseline *prof.Profile) *Promoter {
	return &Promoter{
		cfg:       cfg.withDefaults(),
		ctrl:      ctrl,
		baseline:  baseline,
		seenKinds: make(map[string]bool),
	}
}

// Baseline returns the profile drift is currently measured against (it
// advances on every promotion).
func (p *Promoter) Baseline() *prof.Profile { return p.baseline }

// PromoterState is the part of a Promoter its owner checkpoints at a
// barrier, so that a resumed pipeline decides exactly as an
// uninterrupted one. The baseline is not part of it: the owner keeps
// the baseline with its other profiles and hands it to NewPromoter.
type PromoterState struct {
	// Strikes counts consecutive rejections and failed rebuilds;
	// Cooldown is the steps left before the next rebuild attempt.
	Strikes, Cooldown int
	// SeenKinds lists, sorted, every fault kind stepped so far: a
	// later canary counts only kinds outside this set as new.
	SeenKinds []string
	// Canary is the candidate serving its canary window, nil when none
	// is.
	Canary *CanaryState
}

// CanaryState is an in-flight canary as a checkpoint holds it.
type CanaryState struct {
	// Snap is the drifted snapshot the candidate was built from;
	// Restore rebuilds the candidate from it.
	Snap *prof.Profile
	// Served counts the steps the candidate has served, the build step
	// included.
	Served int
	// KindsBefore lists, sorted, the fault kinds seen before the build;
	// NewKinds those first seen while the candidate served.
	KindsBefore, NewKinds []string
}

// State returns the promoter's checkpointable state.
func (p *Promoter) State() PromoterState {
	st := PromoterState{Strikes: p.strikes, Cooldown: p.cooldown, SeenKinds: sortedKeys(p.seenKinds)}
	if c := p.canary; c != nil {
		st.Canary = &CanaryState{
			Snap: c.snap, Served: c.served,
			KindsBefore: sortedKeys(c.kindsBefore), NewKinds: sortedKeys(c.newKinds),
		}
	}
	return st
}

// Restore reinstates checkpointed state into a freshly built promoter.
// An in-flight canary is re-materialized by calling the controller's
// Rebuild on its snapshot (builds are deterministic, so this is the
// candidate that was serving). If that rebuild fails, the canary is
// dropped, the rest of the state still applies, and the error is
// returned; the drift detector then simply rebuilds again.
func (p *Promoter) Restore(st PromoterState) error {
	p.strikes, p.cooldown = st.Strikes, st.Cooldown
	p.seenKinds = keySet(st.SeenKinds)
	p.canary = nil
	c := st.Canary
	if c == nil || c.Snap == nil || p.ctrl == nil || p.ctrl.Rebuild == nil {
		return nil
	}
	cand, err := p.ctrl.Rebuild(c.Snap)
	if err != nil {
		return fmt.Errorf("canary rebuild: %w", err)
	}
	if cand == nil {
		cand = &Candidate{}
	}
	p.canary = &canaryState{
		snap: c.Snap, cand: cand, served: c.Served,
		kindsBefore: keySet(c.KindsBefore), newKinds: keySet(c.NewKinds),
	}
	return nil
}

// Step advances the pipeline by one step. overlap is the owner's drift
// statistic against Baseline (1 = no drift), snap the aggregate snapshot
// a rebuild would train on, stepKinds the fault kinds observed this step
// (the canary's no-new-fault-kinds gate compares them against the kinds
// seen before the candidate was built).
func (p *Promoter) Step(overlap float64, snap *prof.Profile, stepKinds []string) StepOutcome {
	var out StepOutcome
	defer func() {
		for _, k := range stepKinds {
			p.seenKinds[k] = true
		}
	}()

	if p.canary != nil {
		// The candidate is serving its canary window; collect any fault
		// kind never seen before the candidate was built.
		out.Canary = true
		p.canary.served++
		for _, k := range stepKinds {
			if !p.canary.kindsBefore[k] {
				p.canary.newKinds[k] = true
			}
		}
		if p.canary.served >= p.cfg.CanarySteps {
			p.decideCanary(&out)
		}
		return out
	}

	if p.cfg.DriftThreshold <= 0 || overlap >= p.cfg.DriftThreshold ||
		p.ctrl == nil || p.ctrl.Rebuild == nil {
		return out
	}
	if p.cooldown > 0 {
		out.CoolingDown = p.cooldown
		p.cooldown--
		return out
	}
	cand, err := p.ctrl.Rebuild(snap)
	if err != nil {
		out.RebuildErr = err.Error()
		p.strike()
		return out
	}
	out.Rebuilt = true
	if cand == nil {
		cand = &Candidate{}
	}
	if cand.Validate != nil {
		if err := cand.Validate(); err != nil {
			p.reject(&out, "validation: "+err.Error())
			return out
		}
	}
	kindsBefore := make(map[string]bool, len(p.seenKinds)+len(stepKinds))
	for k := range p.seenKinds {
		kindsBefore[k] = true
	}
	for _, k := range stepKinds {
		// This step's collection ran on the incumbent, before the build:
		// its faults predate the candidate.
		kindsBefore[k] = true
	}
	p.canary = &canaryState{
		snap: snap, cand: cand, served: 1,
		kindsBefore: kindsBefore, newKinds: make(map[string]bool),
	}
	out.Canary = true
	if p.canary.served >= p.cfg.CanarySteps {
		p.decideCanary(&out)
	}
	return out
}

// decideCanary runs the promotion gates at the end of the canary window:
// no new fault kinds, canary latency within the regression budget of the
// incumbent, and a successful activation. Any failure rolls back to the
// incumbent.
func (p *Promoter) decideCanary(out *StepOutcome) {
	c := p.canary
	p.canary = nil
	if len(c.newKinds) > 0 {
		p.reject(out, fmt.Sprintf("canary: new fault kinds %v", sortedKeys(c.newKinds)))
		return
	}
	if p.ctrl != nil && p.ctrl.Incumbent != nil && c.cand.Measure != nil {
		inc, err := p.ctrl.Incumbent()
		if err != nil {
			p.reject(out, "incumbent measurement: "+err.Error())
			return
		}
		cl, err := c.cand.Measure()
		if err != nil {
			p.reject(out, "canary measurement: "+err.Error())
			return
		}
		if inc > 0 && cl > inc*(1+p.cfg.RegressionBudget) {
			p.reject(out, fmt.Sprintf(
				"canary latency %.0f regresses incumbent %.0f beyond the %.1f%% budget",
				cl, inc, p.cfg.RegressionBudget*100))
			return
		}
	}
	if c.cand.Promote != nil {
		if err := c.cand.Promote(); err != nil {
			p.reject(out, "activation: "+err.Error())
			return
		}
	}
	out.Promoted = true
	p.baseline = c.snap
	p.strikes = 0
	p.cooldown = 0
}

// reject rolls a candidate back to the incumbent, records the reason,
// and arms the cool-down.
func (p *Promoter) reject(out *StepOutcome, reason string) {
	out.Rejected = reason
	p.canary = nil
	p.strike()
}

// strike arms the capped-backoff cool-down after a rejection or failed
// rebuild (see cooldownBase).
func (p *Promoter) strike() {
	p.strikes++
	p.cooldown = resilience.StepBackoff(p.strikes, cooldownBase, cooldownMax)
}

// sortedKeys returns a set's members in sorted order (nil when empty).
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func keySet(keys []string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}
