package interp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
)

// TestDistPickSkewedEmpirical is the modulo-bias regression test: over a
// skewed 3-target distribution the empirical pick frequencies must match
// the weights within a few standard deviations. The old
// `rng.Uint64() % total` sampler was biased toward low residues; the
// bounded Lemire draws behind the alias tables are exact.
func TestDistPickSkewedEmpirical(t *testing.T) {
	weights := []uint64{1, 10, 100}
	d, err := NewDist([]int{0, 1, 2}, weights)
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	const n = 111000
	src := &fastSource{s: 42}
	counts := [3]int{}
	for i := 0; i < n; i++ {
		counts[d.pick(src)]++
	}
	var total uint64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		p := float64(w) / float64(total)
		want := float64(n) * p
		// Binomial stddev; 5 sigma keeps the flake rate negligible
		// while still catching the old modulo bias (which skewed the
		// buckets by far more than this for adversarial totals).
		tol := 5 * math.Sqrt(float64(n)*p*(1-p))
		if diff := math.Abs(float64(counts[i]) - want); diff > tol {
			t.Errorf("target %d picked %d times, want %.0f±%.0f", i, counts[i], want, tol)
		}
	}
}

// TestDeepRecursionMemoryBound checks that MaxDepth is bounded by memory,
// not by Go stack growth: both engines keep their frames on the heap,
// so each must carry a million-deep call chain and still report the
// depth fault cleanly.
func TestDeepRecursionMemoryBound(t *testing.T) {
	m := ir.NewModule()
	b := ir.NewFunction(m, "rec", 0)
	b.Call("rec", 0)
	b.Ret()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, eng := range []Engine{EngineCompiled, EngineInterp} {
		t.Run(eng.String(), func(t *testing.T) {
			mc := NewMachine(p, 1)
			mc.Engine = eng
			mc.MaxDepth = 1 << 20
			err := mc.Run("rec")
			if err == nil || !strings.Contains(err.Error(), "depth") {
				t.Fatalf("Run = %v, want depth error after %d frames", err, mc.MaxDepth)
			}
		})
	}
}

// newDispatchBenchMachine builds the shared dispatch-microbenchmark
// machine: a loop mixing straight-line work, direct calls and a skewed
// indirect call — the instruction mix the kernel entries are built
// from. BenchmarkMachineRun and BenchmarkMachineRunCompiled both run
// it, differing only in the Engine selector.
func newDispatchBenchMachine(b *testing.B) *Machine {
	b.Helper()
	m := ir.NewModule()
	w := ir.NewFunction(m, "work", 0)
	w.ALU(10).Ret()
	ha := ir.NewFunction(m, "handler_a", 1)
	ha.ALU(2).Ret()
	hb := ir.NewFunction(m, "handler_b", 1)
	hb.ALU(20).Ret()
	e := ir.NewFunction(m, "entry", 0)
	e.Jmp("loop")
	e.NewBlock("loop")
	e.ALU(12)
	e.Call("work", 0)
	site := e.IndirectCall(1)
	e.BrLoop(100, "loop", "out")
	e.NewBlock("out")
	e.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		b.Fatalf("Verify: %v", err)
	}
	p, err := Compile(m)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.CPU = cpu.New(cpu.DefaultParams())
	res := NewResolver()
	d, err := NewDist(
		[]int{p.FuncIndex("handler_a"), p.FuncIndex("handler_b")},
		[]uint64{9, 1},
	)
	if err != nil {
		b.Fatalf("NewDist: %v", err)
	}
	res.Set(site, d)
	mc.Res = res
	return mc
}

// BenchmarkMachineRun times the reference loop's dispatch; see
// BenchmarkMachineRunCompiled for the threaded-code half of the pair.
func BenchmarkMachineRun(b *testing.B) {
	mc := newDispatchBenchMachine(b)
	mc.Engine = EngineInterp
	idx := mc.Prog.FuncIndex("entry")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.RunIndex(idx); err != nil {
			b.Fatal(err)
		}
	}
}
