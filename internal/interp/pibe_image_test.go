package interp_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	pibe "repro"
	"repro/internal/cpu"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// TestCompiledEquivalencePIBEImage runs the engine gate on the code PIBE
// emits: the image Build makes from the default kernel's LMBench
// profile at the lax budgets (ICP 99.999%, inlining 99.9999%, size
// rules lifted inside 99%) with all defenses. ICP leaves cmpfn and
// flag-branch compares, and every inlined call leaves superblock seams
// back to back: the shapes the threaded-code tier fuses, which the
// unoptimized kernels of the other equivalence tests hardly run. Every
// LMBench entry runs on both engines, and outcomes, resolve traces,
// injected faults, cycles and every cpu.Counters field must agree in
// three modes:
//   - plain, with models warm across reps, under the default i-cache and
//     under 32- and 128-byte lines, since a repeat touch is folded only
//     where it is a way-0 hit under every line size;
//   - with an injector armed on each machine, so every run takes the
//     careful paths, which draw in the reference loop's order;
//   - under step budgets that end runs at one point after another.
//     Nearly every seam on this image directly follows another sequence
//     point, so most of these fuel faults land inside a fused run.
func TestCompiledEquivalencePIBEImage(t *testing.T) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewSyntheticKernel: %v", err)
	}
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	img, err := sys.Build(pibe.BuildConfig{
		Profile:  p,
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999999, LaxBudget: 0.99},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prog, err := interp.Compile(img.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := workload.BuildResolver(sys.Kernel, prog, workload.LMBench)
	if err != nil {
		t.Fatalf("BuildResolver: %v", err)
	}
	var entries []string
	for _, s := range sys.Kernel.Specs {
		entries = append(entries, sys.Kernel.Entries[s.Name])
	}
	// pair returns the reference and compiled machines for one entry,
	// with equal seeds and models of geometry par.
	pair := func(i int, par cpu.Params) [2]*interp.Machine {
		var ms [2]*interp.Machine
		for j, eng := range []interp.Engine{interp.EngineInterp, interp.EngineCompiled} {
			mc := interp.NewMachine(prog, int64(31+i))
			mc.Res, mc.Engine, mc.CPU = res, eng, cpu.New(par)
			ms[j] = mc
		}
		return ms
	}

	t.Run("plain", func(t *testing.T) {
		for _, line := range []int64{64, 32, 128} {
			par := cpu.DefaultParams()
			par.ICacheLine = line
			for i, entry := range entries {
				ms := pair(i, par)
				for rep := 0; rep < 3; rep++ {
					if ob := agree(t, ms, entry); ob.outcome != "ok" {
						t.Fatalf("%s, %d-byte lines: %s", entry, line, ob.outcome)
					}
				}
			}
		}
	})

	t.Run("injected", func(t *testing.T) {
		var faulted, completed int
		for i, entry := range entries {
			ms := pair(i, cpu.DefaultParams())
			for _, mc := range ms {
				mc.Inject = resilience.NewInjector(int64(i), resilience.Rates{Trap: 0.004, Depth: 0.004, Fuel: 0.0005})
			}
			for rep := 0; rep < 4; rep++ {
				if agree(t, ms, entry).outcome == "ok" {
					completed++
				} else {
					faulted++
				}
			}
		}
		if faulted == 0 || completed == 0 {
			t.Fatalf("%d runs faulted and %d completed; want some of each", faulted, completed)
		}
	})

	t.Run("step-budgets", func(t *testing.T) {
		var faulted int
		for i, entry := range entries {
			ms := pair(i, cpu.DefaultParams())
			for budget := int64(1); budget < 2500; budget += 1 + budget/32 {
				ms[0].MaxSteps, ms[1].MaxSteps = budget, budget
				if agree(t, ms, entry).outcome != "ok" {
					faulted++
				}
			}
		}
		if faulted == 0 {
			t.Fatal("no step budget ended a run")
		}
	})
}

// outcome is what one run of a machine shows.
type outcome struct {
	outcome, resolves, faults string
	cycles                    int64
	stats                     cpu.Counters
}

// agree runs entry once on each machine of ms, the reference loop
// first, fails the test unless both show the same, and returns what the
// reference showed.
func agree(t *testing.T, ms [2]*interp.Machine, entry string) outcome {
	t.Helper()
	var obs [2]outcome
	for j, mc := range ms {
		h := fnv.New64a()
		mc.OnResolve = func(orig ir.SiteID, target int32) { fmt.Fprintf(h, "%d>%d\n", orig, target) }
		ob := outcome{outcome: "ok"}
		if err := mc.Run(entry); err != nil {
			ob.outcome = err.Error()
		}
		ob.resolves, ob.faults = fmt.Sprintf("%016x", h.Sum64()), fmt.Sprint(mc.Inject.Counts())
		ob.cycles, ob.stats = mc.CPU.Cycles, mc.CPU.Stats
		obs[j] = ob
	}
	if obs[0] != obs[1] {
		t.Fatalf("%s: engines diverged (MaxSteps %d):\n  interp:   %+v\n  compiled: %+v", entry, ms[0].MaxSteps, obs[0], obs[1])
	}
	return obs[0]
}
