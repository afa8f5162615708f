package pibe_test

import (
	"testing"

	pibe "repro"
)

// TestProfileGoldenDigests pins the bytes of the profiles the default
// kernel yields. BENCH_sweep.json, the paper tables and the ingest
// snapshot are all built from profiles like these, so a change to the
// recorder, the interpreter's draw order or the profile serializer that
// alters a single count shows up here first, with the workload named.
// Both engines must yield the same bytes: the compiled system profiles
// on the model-free chain, and its chaos run takes the interpreter,
// because a machine with an injector falls back to it.
func TestProfileGoldenDigests(t *testing.T) {
	for _, eng := range []pibe.Engine{pibe.EngineInterp, pibe.EngineCompiled} {
		t.Run(eng.String(), func(t *testing.T) { checkProfileGoldens(t, eng) })
	}
}

func checkProfileGoldens(t *testing.T, eng pibe.Engine) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewSyntheticKernel: %v", err)
	}
	sys.SetEngine(eng)
	check := func(name string, p *pibe.Profile, hash string, sites int, ops uint64) {
		t.Helper()
		raw := p.Raw()
		if got := raw.Hash(); got != hash {
			t.Errorf("%s: profile hash %s, want %s", name, got, hash)
		}
		if len(raw.Sites) != sites || raw.Ops != ops {
			t.Errorf("%s: %d sites over %d ops, want %d over %d", name, len(raw.Sites), raw.Ops, sites, ops)
		}
	}
	for _, c := range []struct {
		w     pibe.Workload
		hash  string
		sites int
		ops   uint64
	}{
		{pibe.LMBench, "ad5f90c612d123fb", 761, 7119},
		{pibe.Apache, "4ea3db3e4355fde3", 528, 640},
		{pibe.Nginx, "cfb85ccf4695292d", 338, 660},
		{pibe.DBench, "fc45130e96a5b9dc", 316, 550},
	} {
		p, err := sys.Profile(c.w, 5)
		if err != nil {
			t.Fatalf("Profile(%s, 5): %v", c.w, err)
		}
		check(c.w.String(), p, c.hash, c.sites, c.ops)
	}

	// A chaos-aborted run lifts whatever it recorded before the trap.
	sys.InjectFaults(99, pibe.FaultRates{Trap: 2e-4}, 0)
	partial, err := sys.Profile(pibe.LMBench, 2)
	sys.InjectFaults(0, pibe.FaultRates{}, 0)
	if !pibe.IsPartialProfileErr(err) || partial == nil {
		t.Fatalf("chaos Profile(lmbench, 2) = %v, %v; want a partial profile and an abort", partial, err)
	}
	check("chaos lmbench", partial, "db5be873d1687cbb", 107, 17)
}
