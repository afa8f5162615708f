package workload

import (
	"runtime"
	"testing"

	"repro/internal/interp"
	"repro/internal/kernel"
)

func benchRunner(b *testing.B, flavor Flavor) *Runner {
	b.Helper()
	k, err := kernel.Generate(kernel.Config{Seed: 3})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	prog, err := interp.Compile(k.Mod)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	r, err := NewRunner(k, prog, flavor, 9)
	if err != nil {
		b.Fatalf("NewRunner: %v", err)
	}
	return r
}

// BenchmarkMeasureRequest is the headline engine benchmark: the cycles of
// one application request, its repetitions run on the calling goroutine.
func BenchmarkMeasureRequest(b *testing.B) {
	r := benchRunner(b, Nginx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.MeasureRequest(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureRequestParallel is BenchmarkMeasureRequest with its
// repetitions on GOMAXPROCS workers; on multi-core machines the ratio of
// the two is the speedup of the worker pool.
func BenchmarkMeasureRequestParallel(b *testing.B) {
	r := benchRunner(b, Nginx)
	r.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.MeasureRequest(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAllSerial measures the full LMBench sweep on the calling
// goroutine.
func BenchmarkMeasureAllSerial(b *testing.B) {
	r := benchRunner(b, LMBench)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.MeasureAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileCollection profiles the Apache mix on the
// interpreter; BenchmarkProfileCollectionCompiled is the other half of
// the pair.
func BenchmarkProfileCollection(b *testing.B) {
	benchProfile(b, interp.EngineInterp)
}

// BenchmarkProfileCollectionCompiled profiles the Apache mix on the
// compiled tier's model-free chain.
func BenchmarkProfileCollectionCompiled(b *testing.B) {
	benchProfile(b, interp.EngineCompiled)
}

func benchProfile(b *testing.B, eng interp.Engine) {
	r := benchRunner(b, Apache)
	r.Engine = eng
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Profile(2); err != nil {
			b.Fatal(err)
		}
	}
}
