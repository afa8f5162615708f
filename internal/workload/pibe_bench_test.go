package workload_test

import (
	"testing"

	pibe "repro"
)

// BenchmarkMeasureAllPIBE is BenchmarkMeasureAllSerial on the code PIBE
// emits: the full LMBench sweep, on the calling goroutine, of the seed-3
// kernel built from its LMBench profile at the lax budgets (ICP 99.999%,
// inlining 99.9999%, size rules lifted inside 99%) with all defenses.
// Its hot paths are ICP's compare-and-branch chains and inlined bodies
// whose seams run back to back, which the unoptimized kernel hardly
// runs.
func BenchmarkMeasureAllPIBE(b *testing.B) {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 3})
	if err != nil {
		b.Fatalf("NewSyntheticKernel: %v", err)
	}
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		b.Fatalf("Profile: %v", err)
	}
	img, err := sys.Build(pibe.BuildConfig{
		Profile:  p,
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999999, LaxBudget: 0.99},
	})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	sys.SetMeasureWorkers(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.MeasureLMBench(pibe.LMBench); err != nil {
			b.Fatal(err)
		}
	}
}
