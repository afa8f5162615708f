package pibe_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	pibe "repro"
	"repro/internal/attack"
	"repro/internal/ir"
)

// imageDigest identifies a built image byte for byte: its static stats,
// size, hardening census, attack report and the IR text of every
// function in module order (the fingerprint perfbench's build workload
// checks its staged builds against).
func imageDigest(img *pibe.Image) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%d\n%+v\n%+v\n", img.Stats(), img.Size(), *img.Census, img.SecurityReport())
	for _, f := range img.Mod.Funcs {
		io.WriteString(h, ir.Print(f))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestImageGoldenDigests pins the images Build makes from the default
// kernel's LMBench profile across the budget range, their attack
// reports, and two latencies measured on each, which run the compiled
// program. Clone, the passes, Verify, Compile and the attack model all
// sit on this path, so a change to any of them that alters one
// instruction, one cycle or one verdict shows up here.
func TestImageGoldenDigests(t *testing.T) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewSyntheticKernel: %v", err)
	}
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	for _, c := range []struct {
		icp, inline float64
		def         pibe.Defenses
		digest      string
		size        int64
		read, nginx float64
		report      attack.Report
	}{
		{0, 0, pibe.Defenses{Retpolines: true}, "7dc32943dd7d545f", 511029, 938.1875, 146281.1,
			attack.Report{ICallsSpectreV2: 12, ICallsLVI: 3175, ReturnsRet2spec: 2748, ReturnsLVI: 2748, IJumpsSpectreV2: 5, TotalICalls: 3175, TotalReturns: 2748, TotalIJumps: 5}},
		{0.9, 0.5, pibe.AllDefenses, "95f90701b12c43ff", 577880, 1687.6375, 158601.9,
			attack.Report{ICallsSpectreV2: 12, ICallsLVI: 12, IJumpsSpectreV2: 5, TotalICalls: 3185, TotalReturns: 2748, TotalIJumps: 5}},
		{0.999, 0.999, pibe.AllDefenses, "c51b57ab72328e17", 715860, 1029.5, 107848,
			attack.Report{ICallsSpectreV2: 12, ICallsLVI: 12, IJumpsSpectreV2: 5, TotalICalls: 3194, TotalReturns: 2748, TotalIJumps: 5}},
		// VeriFence keeps every dispatch BTB-predicted, so all its icalls
		// and jump tables stay Spectre V2 targets; its lfence stops LVI
		// at the fenced icalls, while the proven-bare and inline-asm ones
		// stay LVI targets (DESIGN.md §15).
		{0.999999, 0.999999, pibe.Defenses{VeriFence: true}, "4ae00856a80a3bdd", 679280, 739.3125, 86679.26666666666,
			attack.Report{ICallsSpectreV2: 3194, ICallsLVI: 2827, ReturnsRet2spec: 2748, ReturnsLVI: 2748, IJumpsSpectreV2: 218, TotalICalls: 3194, TotalReturns: 2748, TotalIJumps: 218}},
	} {
		name := fmt.Sprintf("icp %g inline %g %+v", c.icp, c.inline, c.def)
		img, err := sys.Build(pibe.BuildConfig{
			Profile:  p,
			Defenses: c.def,
			Optimize: pibe.OptimizeConfig{ICPBudget: c.icp, InlineBudget: c.inline},
		})
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		if got := imageDigest(img); got != c.digest {
			t.Errorf("%s: image digest %s, want %s", name, got, c.digest)
		}
		if got := img.SecurityReport(); got != c.report {
			t.Errorf("%s: security report %+v, want %+v", name, got, c.report)
		}
		if got := img.Size(); got != c.size {
			t.Errorf("%s: size %d, want %d", name, got, c.size)
		}
		lat, err := img.MeasureBenchmark(pibe.LMBench, "read")
		if err != nil {
			t.Fatalf("%s: MeasureBenchmark: %v", name, err)
		}
		if lat.Cycles != c.read {
			t.Errorf("%s: read %v cycles, want %v", name, lat.Cycles, c.read)
		}
		cycles, err := img.MeasureRequestCycles(pibe.Nginx)
		if err != nil {
			t.Fatalf("%s: MeasureRequestCycles: %v", name, err)
		}
		if cycles != c.nginx {
			t.Errorf("%s: nginx request %v cycles, want %v", name, cycles, c.nginx)
		}
	}
}
