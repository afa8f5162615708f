package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prof"
)

// stepSnap is a distinguishable snapshot for step i: its Ops field is
// i, which the controllers below read to decide a candidate's fate, so
// a candidate rebuilt from a checkpointed snapshot behaves exactly like
// the original.
func stepSnap(i int) *prof.Profile {
	p := prof.New()
	p.AddDirect(siteID(i), "caller", "callee", 10)
	p.Ops = uint64(i)
	return p
}

// gateFree is a controller whose candidates pass every gate; rebuilds
// records the snapshots it was asked to build from.
func gateFree(rebuilds *[]*prof.Profile) *Controller {
	return &Controller{Rebuild: func(snap *prof.Profile) (*Candidate, error) {
		*rebuilds = append(*rebuilds, snap)
		return &Candidate{}, nil
	}}
}

// TestDriftRebuild: drift below the threshold rebuilds from the drifted
// snapshot, a gate-free candidate is promoted within its build step, and
// the promotion advances the baseline to that snapshot; no drift, or a
// zero threshold, rebuilds nothing.
func TestDriftRebuild(t *testing.T) {
	var rebuilds []*prof.Profile
	base := stepSnap(0)
	p := NewPromoter(PromoteConfig{DriftThreshold: 0.9}, gateFree(&rebuilds), base)
	if out := p.Step(0.95, stepSnap(1), nil); out != (StepOutcome{}) {
		t.Fatalf("overlap above the threshold stepped %+v", out)
	}
	drifted := stepSnap(2)
	out := p.Step(0.3, drifted, nil)
	if !out.Rebuilt || !out.Canary || !out.Promoted || out.Rejected != "" {
		t.Fatalf("drifted step = %+v, want rebuilt, canaried and promoted", out)
	}
	if len(rebuilds) != 1 || rebuilds[0] != drifted {
		t.Fatalf("rebuild hook saw %d snapshots, want exactly the drifted one", len(rebuilds))
	}
	if p.Baseline() != drifted {
		t.Error("promotion did not advance the baseline to the drifted snapshot")
	}

	off := NewPromoter(PromoteConfig{}, gateFree(&rebuilds), base)
	if out := off.Step(0, stepSnap(3), nil); out != (StepOutcome{}) || len(rebuilds) != 1 {
		t.Errorf("zero threshold stepped %+v with %d rebuilds", out, len(rebuilds))
	}
}

// TestRejectionAndCooldown: a candidate that fails validation is rolled
// back with its reason recorded, the baseline stays, and each repeated
// rejection arms the default cool-down, which doubles from one step and
// caps at 16.
func TestRejectionAndCooldown(t *testing.T) {
	base := stepSnap(0)
	p := NewPromoter(PromoteConfig{DriftThreshold: 0.9}, &Controller{Rebuild: func(*prof.Profile) (*Candidate, error) {
		return &Candidate{Validate: func() error { return errors.New("trace diverged at site 7") }}, nil
	}}, base)
	step := 0
	next := func() StepOutcome {
		step++
		return p.Step(0.3, stepSnap(step), nil)
	}
	var cooldowns []int
	for len(cooldowns) < 6 {
		if o := next(); !o.Rebuilt || o.Promoted || o.Rejected != "validation: trace diverged at site 7" {
			t.Fatalf("step %d = %+v, want rebuilt and rejected by validation", step, o)
		}
		// The strike's cool-down suppresses that many steps, each
		// reporting the steps left, before the rebuild is retried.
		armed := p.State().Cooldown
		for left := armed; left > 0; left-- {
			if o := next(); o.Rebuilt || o.CoolingDown != left {
				t.Fatalf("step %d = %+v, want a suppressed rebuild with CoolingDown %d", step, o, left)
			}
		}
		cooldowns = append(cooldowns, armed)
	}
	if want := []int{1, 2, 4, 8, 16, 16}; !reflect.DeepEqual(cooldowns, want) {
		t.Errorf("cool-downs after six strikes = %v, want %v", cooldowns, want)
	}
	if p.Baseline() != base {
		t.Error("baseline advanced despite rejections")
	}
}

// TestCanaryLatencyGate: the regression budget separates a candidate
// that is promoted from one that is rolled back.
func TestCanaryLatencyGate(t *testing.T) {
	run := func(canaryLatency float64) (StepOutcome, bool) {
		promoted := false
		p := NewPromoter(PromoteConfig{DriftThreshold: 0.9, RegressionBudget: 0.05}, &Controller{
			Rebuild: func(*prof.Profile) (*Candidate, error) {
				return &Candidate{
					Measure: func() (float64, error) { return canaryLatency, nil },
					Promote: func() error { promoted = true; return nil },
				}, nil
			},
			Incumbent: func() (float64, error) { return 100, nil },
		}, stepSnap(0))
		return p.Step(0.3, stepSnap(1), nil), promoted
	}
	if out, promoted := run(104); !out.Promoted || !promoted {
		t.Errorf("candidate within budget not promoted: %+v (Promote ran %t)", out, promoted)
	}
	out, promoted := run(120)
	if out.Promoted || promoted || !strings.Contains(out.Rejected, "canary latency") {
		t.Errorf("candidate 20%% over budget = %+v (Promote ran %t), want a latency rejection", out, promoted)
	}
}

// TestCanaryFaultKindGate: a fault kind first seen while the candidate
// serves its canary window rejects the promotion; the same kind seen
// before the build does not.
func TestCanaryFaultKindGate(t *testing.T) {
	run := func(before, during []string) [2]StepOutcome {
		var rebuilds []*prof.Profile
		p := NewPromoter(PromoteConfig{DriftThreshold: 0.9, CanarySteps: 2}, gateFree(&rebuilds), stepSnap(0))
		return [2]StepOutcome{p.Step(0.3, stepSnap(1), before), p.Step(0.3, stepSnap(2), during)}
	}
	outs := run(nil, []string{"trap"})
	if !outs[0].Canary || !outs[1].Canary {
		t.Errorf("canary window not recorded on both steps: %+v", outs)
	}
	if outs[0].Promoted || outs[0].Rejected != "" {
		t.Errorf("two-step canary decided in its build step: %+v", outs[0])
	}
	if dec := outs[1]; dec.Promoted || dec.Rejected != "canary: new fault kinds [trap]" {
		t.Errorf("canary decision = %+v, want a rejection naming the new trap kind", dec)
	}
	if outs := run([]string{"trap"}, []string{"trap"}); !outs[1].Promoted {
		t.Errorf("a kind seen in the build step counted as new: %+v", outs[1])
	}
}

// TestActivationFailureRollsBack: a Promote callback error is a
// rejection, not a crash, and the incumbent baseline keeps serving.
func TestActivationFailureRollsBack(t *testing.T) {
	base := stepSnap(0)
	p := NewPromoter(PromoteConfig{DriftThreshold: 0.9}, &Controller{
		Rebuild: func(*prof.Profile) (*Candidate, error) {
			return &Candidate{Promote: func() error { return errors.New("swap failed") }}, nil
		},
	}, base)
	out := p.Step(0.3, stepSnap(1), nil)
	if out.Promoted || out.Rejected != "activation: swap failed" {
		t.Errorf("activation failure = %+v, want a rejection", out)
	}
	if p.Baseline() != base {
		t.Error("failed activation advanced the baseline")
	}
}

// TestStateRoundTrip: State and Restore carry strikes, cool-down, seen
// kinds and an in-flight canary into a fresh promoter; a canary whose
// rebuild fails is dropped while the rest still applies.
func TestStateRoundTrip(t *testing.T) {
	st := PromoterState{
		Strikes: 2, Cooldown: 3, SeenKinds: []string{"fuel-exhausted", "trap"},
		Canary: &CanaryState{
			Snap: stepSnap(9), Served: 1,
			KindsBefore: []string{"trap"}, NewKinds: []string{"corrupt"},
		},
	}
	var rebuilds []*prof.Profile
	p := NewPromoter(PromoteConfig{DriftThreshold: 0.9, CanarySteps: 3}, gateFree(&rebuilds), stepSnap(0))
	if err := p.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := p.State(); !reflect.DeepEqual(got, st) {
		t.Errorf("state did not round-trip:\n got %+v %+v\nwant %+v %+v", got, got.Canary, st, st.Canary)
	}
	if len(rebuilds) != 1 || rebuilds[0] != st.Canary.Snap {
		t.Errorf("canary rebuilt from %d snapshots, want its own once", len(rebuilds))
	}

	failing := NewPromoter(PromoteConfig{DriftThreshold: 0.9}, &Controller{
		Rebuild: func(*prof.Profile) (*Candidate, error) { return nil, errors.New("build failed") },
	}, stepSnap(0))
	if err := failing.Restore(st); err == nil {
		t.Error("a failed canary rebuild was not reported")
	}
	want := st
	want.Canary = nil
	if got := failing.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("after a failed canary rebuild state = %+v, want %+v", got, want)
	}
}

// TestRestoreCanaryInFlight: a canary serving at checkpoint time is
// re-materialized on restore and still reaches its decision.
func TestRestoreCanaryInFlight(t *testing.T) {
	var rebuilds []*prof.Profile
	p := NewPromoter(PromoteConfig{DriftThreshold: 0.9, CanarySteps: 3}, gateFree(&rebuilds), stepSnap(0))
	snap := stepSnap(9)
	if err := p.Restore(PromoterState{
		SeenKinds: []string{"trap"},
		Canary:    &CanaryState{Snap: snap, Served: 2, KindsBefore: []string{"trap"}},
	}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(rebuilds) != 1 {
		t.Fatalf("restore did not re-materialize the candidate (rebuilds %d)", len(rebuilds))
	}
	// Served was 2 of 3: the next step completes the window, the
	// recurring trap predates the build, and the candidate promotes.
	out := p.Step(0.3, stepSnap(10), []string{"trap"})
	if !out.Canary || !out.Promoted || out.Rebuilt {
		t.Fatalf("restored canary did not decide: %+v", out)
	}
	if p.Baseline() != snap {
		t.Error("promotion did not advance the baseline to the canary snapshot")
	}
}

// TestResumeMatchesUninterrupted is the crash-safety contract at the
// promoter: checkpointing State after any step and restoring it into a
// fresh promoter yields exactly the uninterrupted run's decisions,
// baseline and state — through a validation rejection and its
// cool-down, a two-step canary whose recurring fault kind predates the
// build, a promotion, and a canary rejected for a new kind.
func TestResumeMatchesUninterrupted(t *testing.T) {
	cfg := PromoteConfig{DriftThreshold: 0.9, CanarySteps: 2}
	// Candidates built from step 1's snapshot fail validation; the
	// others measure 10× their snapshot's step against an incumbent of
	// 100.
	ctrl := &Controller{
		Rebuild: func(snap *prof.Profile) (*Candidate, error) {
			c := &Candidate{Measure: func() (float64, error) { return float64(snap.Ops * 10), nil }}
			if snap.Ops == 1 {
				c.Validate = func() error { return fmt.Errorf("diverged at step %d", snap.Ops) }
			}
			return c, nil
		},
		Incumbent: func() (float64, error) { return 100, nil },
	}
	steps := []struct {
		overlap float64
		kinds   []string
	}{
		{0.3, []string{"trap"}}, {0.3, nil}, {0.3, []string{"fuel-exhausted"}},
		{0.6, []string{"trap"}}, {0.3, nil}, {0.3, []string{"depth-exhausted"}}, {0.95, nil},
	}
	base := stepSnap(0)
	step := func(p *Promoter, i int) StepOutcome {
		return p.Step(steps[i].overlap, stepSnap(i+1), steps[i].kinds)
	}

	ref := NewPromoter(cfg, ctrl, base)
	var want []StepOutcome
	for i := range steps {
		want = append(want, step(ref, i))
	}
	var promoted, rejected int
	for _, o := range want {
		if o.Promoted {
			promoted++
		}
		if o.Rejected != "" {
			rejected++
		}
	}
	if promoted != 1 || rejected != 2 {
		t.Fatalf("reference run promoted %d and rejected %d, want 1 and 2: %+v", promoted, rejected, want)
	}

	for crash := 0; crash < len(steps); crash++ {
		p := NewPromoter(cfg, ctrl, base)
		var got []StepOutcome
		for i := 0; i <= crash; i++ {
			got = append(got, step(p, i))
		}
		re := NewPromoter(cfg, ctrl, p.Baseline())
		if err := re.Restore(p.State()); err != nil {
			t.Fatalf("crash after step %d: Restore: %v", crash, err)
		}
		for i := crash + 1; i < len(steps); i++ {
			got = append(got, step(re, i))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("crash after step %d: decisions\n %+v\nwant %+v", crash, got, want)
		}
		if !reflect.DeepEqual(re.Baseline(), ref.Baseline()) || !reflect.DeepEqual(re.State(), ref.State()) {
			t.Errorf("crash after step %d: resumed promoter converged on a different baseline or state", crash)
		}
	}
}
