package pibe_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	pibe "repro"
	"repro/internal/ir"
	"repro/internal/resilience"
)

// fleetBuild is the all-defenses optimized configuration the fleet's
// rebuild controller uses in these tests.
func fleetBuild() pibe.BuildConfig {
	return pibe.BuildConfig{
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999, LaxBudget: 0.99},
	}
}

// TestFleetDriftRebuildEndToEnd demonstrates the whole loop: an image
// built against an LMBench-only profile goes stale when the fleet's
// workload mix shifts to Apache/Nginx; the drift detector sees hot-set
// overlap below the threshold, the controller rebuilds from the live
// aggregate, and the rebuilt image serves the shifted mix strictly
// faster than the stale one (the §8.4 mismatched-profile penalty,
// recovered automatically).
func TestFleetDriftRebuildEndToEnd(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)

	fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
		Runners:        4,
		Shards:         4,
		Epochs:         2,
		OpsScale:       2,
		Seed:           42,
		Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
		DriftThreshold: 0.75,
		Build:          fleetBuild(),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	stale := fl.Image()
	staleCycles, err := stale.MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure stale image: %v", err)
	}

	res, err := fl.Run()
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if res.Partial {
		t.Error("fault-free fleet run reported partial aggregate")
	}
	if res.Rebuilds == 0 {
		t.Fatalf("workload shift did not trigger a rebuild; epochs: %+v", res.Epochs)
	}
	first := res.Epochs[0]
	if !(first.Overlap < 0.75) {
		t.Errorf("epoch 0 hot-set overlap = %.3f, want below the 0.75 threshold", first.Overlap)
	}
	if !first.Rebuilt {
		t.Errorf("drifted epoch 0 did not rebuild: %+v", first)
	}
	if !first.Promoted || first.Rejected != "" {
		t.Errorf("clean candidate did not pass the promotion gates: %+v", first)
	}

	fresh := fl.Image()
	if fresh == stale {
		t.Fatal("rebuild did not replace the active image")
	}
	freshCycles, err := fresh.MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure rebuilt image: %v", err)
	}
	if !(freshCycles < staleCycles) {
		t.Errorf("rebuilt image not faster on the shifted mix: stale %.0f cycles, rebuilt %.0f cycles",
			staleCycles, freshCycles)
	}
	t.Logf("apache request kernel cycles: stale %.0f → rebuilt %.0f (%.1f%% better), overlap %.3f",
		staleCycles, freshCycles, 100*(staleCycles-freshCycles)/staleCycles, first.Overlap)
}

// TestFleetDeterministicAggregate is the public-API side of the
// determinism contract: two fleet runs with the same seed and shard
// count serialize byte-identical final aggregates.
func TestFleetDeterministicAggregate(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	run := func() []byte {
		fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
			Runners: 3,
			Shards:  4,
			Epochs:  2,
			Seed:    7,
			Mix:     []pibe.Workload{pibe.Apache, pibe.Nginx, pibe.DBench},
			// No DriftThreshold: collection only, no rebuilds.
			Build: pibe.BuildConfig{},
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if _, err := res.Final.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed + shard count produced different serialized aggregates (%d vs %d bytes)", len(a), len(b))
	}
}

// TestFleetTrajectory exercises the overhead-trajectory measurement: the
// per-epoch request-cycle samples must be positive, and the post-rebuild
// sample must improve on the pre-rebuild one.
func TestFleetTrajectory(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
		Runners:        4,
		Shards:         4,
		Epochs:         3,
		Seed:           11,
		Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
		DriftThreshold: 0.75,
		Build:          fleetBuild(),
		Measure:        true,
		MeasureApp:     pibe.Apache,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	// The pre-run sample on the stale image anchors the trajectory.
	staleCycles, err := fl.Image().MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure stale: %v", err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rebuiltAt := -1
	for _, e := range res.Epochs {
		if e.RequestCycles <= 0 {
			t.Fatalf("epoch %d trajectory sample = %v", e.Epoch, e.RequestCycles)
		}
		if e.Rebuilt && rebuiltAt < 0 {
			rebuiltAt = e.Epoch
		}
	}
	if rebuiltAt < 0 {
		t.Fatalf("no rebuild in trajectory run: %+v", res.Epochs)
	}
	after := res.Epochs[rebuiltAt].RequestCycles
	if !(after < staleCycles) {
		t.Errorf("trajectory did not improve after rebuild: stale %.0f, post-rebuild %.0f", staleCycles, after)
	}
}

// stripOneDefense models a miscompiled hardening pass: one rewriteable
// indirect call loses its retpoline thunk.
func stripOneDefense(mod *ir.Module) {
	done := false
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if !done && in.Op == ir.OpICall && !in.Asm && in.Defense != ir.DefNone {
				in.Defense = ir.DefNone
				done = true
			}
		})
		if done {
			return
		}
	}
}

// swapBranches models a control-flow miscompile: every conditional
// branch is inverted, which passes the structural checks (the module
// still verifies and every surviving indirect branch stays hardened)
// but diverges observably from the reference.
func swapBranches(mod *ir.Module) {
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpBr && in.Else != "" {
				in.Then, in.Else = in.Else, in.Then
			}
		})
	}
}

// TestFleetTamperedCandidateRejected is the promotion-safety E2E: a
// candidate whose build was corrupted — either dropping a hardening
// site or miscompiling control flow — is rejected by differential
// validation, the incumbent image keeps serving, and the rejection
// reason lands in the epoch report and the run counters.
func TestFleetTamperedCandidateRejected(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(*ir.Module)
		want   string
	}{
		{"unhardened-site", stripOneDefense, "unhardened-site"},
		{"behavioral-divergence", swapBranches, "divergence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := testSystem(t)
			profLM := testProfile(t, sys)
			fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
				Runners:        4,
				Shards:         4,
				Epochs:         2,
				Seed:           42,
				Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
				DriftThreshold: 0.75,
				Build:          fleetBuild(),
				TamperRebuild:  tc.tamper,
			})
			if err != nil {
				t.Fatalf("NewFleet: %v", err)
			}
			incumbent := fl.Image()
			res, err := fl.Run()
			if err != nil {
				t.Fatalf("fleet run: %v", err)
			}
			if res.Rebuilds != 0 {
				t.Errorf("tampered candidate was promoted (%d rebuilds)", res.Rebuilds)
			}
			if res.Rejections == 0 {
				t.Fatalf("tampered candidate was not rejected: %+v", res.Epochs)
			}
			first := res.Epochs[0]
			if !first.Rebuilt || first.Promoted {
				t.Errorf("epoch 0 = %+v, want rebuilt-but-not-promoted", first)
			}
			if !strings.Contains(first.Rejected, tc.want) {
				t.Errorf("rejection reason %q does not name %q", first.Rejected, tc.want)
			}
			if fl.Image() != incumbent {
				t.Error("incumbent image was replaced despite the rejection")
			}
		})
	}
}

// TestFleetStateResumeContinues is the crash-safe resume E2E at the
// public API: a fleet stopped after two epochs resumes from its
// checkpoint directory, replays only the remaining epoch, and converges
// on exactly the same final aggregate, promotion count and image as an
// uninterrupted run.
func TestFleetStateResumeContinues(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	mkCfg := func(dir string, epochs int) pibe.FleetConfig {
		return pibe.FleetConfig{
			Runners:        4,
			Shards:         4,
			Epochs:         epochs,
			Seed:           42,
			Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
			DriftThreshold: 0.75,
			Build:          fleetBuild(),
			StateDir:       dir,
		}
	}
	run := func(dir string, epochs int) (*pibe.Fleet, *pibe.FleetResult) {
		fl, err := sys.NewFleet(profLM, mkCfg(dir, epochs))
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fl, res
	}

	dirA := t.TempDir()
	flA, resA := run(dirA, 3)
	if resA.Rebuilds == 0 {
		t.Fatal("reference run never promoted; drift config inert")
	}

	dirB := t.TempDir()
	_, resB1 := run(dirB, 2)
	flB, resB2 := run(dirB, 3)
	if resB2.StartEpoch != 2 || len(resB2.Epochs) != 1 {
		t.Fatalf("resume replayed epochs %+v starting at %d, want exactly epoch 2",
			resB2.Epochs, resB2.StartEpoch)
	}
	if resB2.Rebuilds != resA.Rebuilds {
		t.Errorf("resumed promotion count %d (carried %d) != uninterrupted %d",
			resB2.Rebuilds, resB1.Rebuilds, resA.Rebuilds)
	}
	var a, b bytes.Buffer
	resA.Final.WriteTo(&a)
	resB2.Final.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("resumed final aggregate differs from the uninterrupted run")
	}
	ca, err := flA.Image().MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure reference image: %v", err)
	}
	cb, err := flB.Image().MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure resumed image: %v", err)
	}
	if ca != cb {
		t.Errorf("resumed fleet serves a different image: %.0f vs %.0f request cycles", cb, ca)
	}
}

// TestFleetStateDirCreated: a state directory that does not exist yet
// is created when the fleet opens it, so a 2-epoch run into it
// checkpoints, and a rerun with 3 epochs resumes and replays only
// epoch 2.
func TestFleetStateDirCreated(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	dir := filepath.Join(t.TempDir(), "not", "yet")
	run := func(epochs int) *pibe.FleetResult {
		fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
			Runners:  2,
			Shards:   2,
			Epochs:   epochs,
			Seed:     42,
			Mix:      []pibe.Workload{pibe.Apache, pibe.Nginx},
			StateDir: dir,
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatalf("Run with %d epochs into a new state dir: %v", epochs, err)
		}
		return res
	}
	run(2)
	res := run(3)
	if res.StartEpoch != 2 || len(res.Epochs) != 1 || res.Epochs[0].Epoch != 2 {
		t.Fatalf("resume started at %d with epochs %+v, want exactly epoch 2", res.StartEpoch, res.Epochs)
	}
}

// TestFleetRejectsOutOfRangeKnobs: a decay or hot budget outside
// (0, 1] is a PhaseIngest/KindConfig fault instead of a silently
// substituted value; 0 still selects the default.
func TestFleetRejectsOutOfRangeKnobs(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	for _, cfg := range []pibe.FleetConfig{
		{Decay: 1.5}, {Decay: -0.5}, {HotBudget: 1.01}, {HotBudget: -0.2},
	} {
		_, err := sys.NewFleet(profLM, cfg)
		if fe, ok := resilience.AsFault(err); !ok || fe.Phase != resilience.PhaseIngest || fe.Kind != resilience.KindConfig {
			t.Errorf("decay %g, hot budget %g: NewFleet = %v, want an ingest/config fault", cfg.Decay, cfg.HotBudget, err)
		}
	}
	fl, err := sys.NewFleet(profLM, pibe.FleetConfig{Runners: 1, Mix: []pibe.Workload{pibe.Apache}})
	if err != nil {
		t.Fatalf("zero decay and hot budget (the defaults) rejected: %v", err)
	}
	if _, err := fl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFleetEmptyAggregateFault: when every collector of every epoch
// dies before contributing anything, each epoch still reaches its
// barrier and reports its failed collectors, and the run ends with a
// structured PhaseFleet/KindEmptyAggregate fault.
func TestFleetEmptyAggregateFault(t *testing.T) {
	sys := testSystem(t)
	profLM := testProfile(t, sys)
	sys.InjectFaults(5, pibe.FaultRates{Trap: 1}, 0)
	defer sys.InjectFaults(0, pibe.FaultRates{}, 0)
	fl, err := sys.NewFleet(profLM, pibe.FleetConfig{
		Runners: 2,
		Shards:  2,
		Epochs:  2,
		Seed:    42,
		Mix:     []pibe.Workload{pibe.Apache, pibe.Nginx},
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	res, err := fl.Run()
	if fe, ok := resilience.AsFault(err); !ok || fe.Phase != resilience.PhaseFleet || fe.Kind != resilience.KindEmptyAggregate {
		t.Fatalf("all-collectors-dead run = %v, want a fleet/empty-aggregate fault", err)
	}
	if res == nil || !res.Partial || len(res.Epochs) != 2 {
		t.Fatalf("result = %+v, want both epochs reported and the run partial", res)
	}
	for _, e := range res.Epochs {
		if e.Failed != 2 || e.Merged != 0 || len(e.FaultKinds) == 0 {
			t.Errorf("epoch %d = %+v, want 2 failed collectors with their fault kinds", e.Epoch, e)
		}
	}
}
