package diffcheck

import (
	"testing"

	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestValidateEngines runs the engine-vs-engine gate over the full
// workload corpus: the threaded-code tier must be observationally and
// cycle-exactly identical to the reference loop on the generated
// kernel, with and without a JumpSwitches runtime on each machine.
func TestValidateEngines(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prog, err := interp.Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rep, err := ValidateEngines(k, prog, Config{
		Flavors: []workload.Flavor{workload.LMBench, workload.Apache, workload.Nginx, workload.DBench},
		Seed:    41,
		Runs:    2,
	})
	if err != nil {
		t.Fatalf("ValidateEngines: %v", err)
	}
	if rep.Entries == 0 || rep.Runs == 0 {
		t.Fatalf("empty validation: %+v", rep)
	}
	// The digest is deterministic for a fixed seed; equal reports from
	// repeated validations prove the comparison itself is stable.
	rep2, err := ValidateEngines(k, prog, Config{
		Flavors: []workload.Flavor{workload.LMBench, workload.Apache, workload.Nginx, workload.DBench},
		Seed:    41,
		Runs:    2,
	})
	if err != nil {
		t.Fatalf("ValidateEngines (repeat): %v", err)
	}
	if rep.Digest != rep2.Digest || rep.Entries != rep2.Entries || rep.Runs != rep2.Runs {
		t.Fatalf("validation not deterministic: %+v vs %+v", rep, rep2)
	}

	// The unhardened kernel leaves every icall bare, so with JumpSwitches
	// each one goes through the runtime on both engines.
	rep3, err := ValidateEngines(k, prog, Config{
		Flavors:      []workload.Flavor{workload.LMBench, workload.Apache},
		Seed:         41,
		Runs:         2,
		JumpSwitches: true,
	})
	if err != nil {
		t.Fatalf("ValidateEngines (JumpSwitches): %v", err)
	}
	if rep3.Entries == 0 || rep3.Runs == 0 {
		t.Fatalf("empty JumpSwitches validation: %+v", rep3)
	}

	// Nil inputs are configuration faults, not panics.
	if _, err := ValidateEngines(nil, prog, Config{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := ValidateEngines(k, nil, Config{}); err == nil {
		t.Fatal("nil program accepted")
	}
}

// TestValidateEnginesNewBackends re-runs the engine-vs-engine gate on a
// kernel hardened under each post-2021 backend: the compiled tier must
// stay cycle-exact when every surviving indirect branch carries a
// FineIBT check, a PAC sign/auth pair, or a VeriFence lfence.
func TestValidateEnginesNewBackends(t *testing.T) {
	for _, cfg := range []harden.Config{
		{FineIBT: true},
		{PACCFI: true},
		{VeriFence: true},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			k, err := kernel.Generate(kernel.Config{Seed: 3})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if _, err := harden.Apply(k.Mod, cfg); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if err := harden.CheckInvariants(k.Mod, cfg, false); err != nil {
				t.Fatalf("CheckInvariants: %v", err)
			}
			prog, err := interp.Compile(k.Mod)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			rep, err := ValidateEngines(k, prog, Config{
				Flavors: []workload.Flavor{workload.LMBench, workload.Apache},
				Seed:    59,
				Runs:    2,
				Harden:  cfg,
			})
			if err != nil {
				t.Fatalf("ValidateEngines(%s): %v", cfg, err)
			}
			if rep.Entries == 0 || rep.Runs == 0 {
				t.Fatalf("empty validation: %+v", rep)
			}
		})
	}
}
