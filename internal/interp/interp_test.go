package interp

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
)

// testModule builds:
//
//	entry: alu(4); call work; icall {handler_a:3, handler_b:1}; ret
//	work:  alu(10); ret
//	handler_a: alu(2); ret
//	handler_b: alu(20); ret
func testModule(t *testing.T) (*ir.Module, ir.SiteID) {
	t.Helper()
	m := ir.NewModule()

	w := ir.NewFunction(m, "work", 0)
	w.ALU(10).Ret()
	ha := ir.NewFunction(m, "handler_a", 1)
	ha.ALU(2).Ret()
	hb := ir.NewFunction(m, "handler_b", 1)
	hb.ALU(20).Ret()

	e := ir.NewFunction(m, "entry", 0)
	e.ALU(4)
	e.Call("work", 0)
	site := e.IndirectCall(1)
	e.Ret()

	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m, site
}

func machineFor(t *testing.T, m *ir.Module, site ir.SiteID, seed int64) *Machine {
	t.Helper()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, seed)
	res := NewResolver()
	d, err := NewDist(
		[]int{p.FuncIndex("handler_a"), p.FuncIndex("handler_b")},
		[]uint64{3, 1},
	)
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	res.Set(site, d)
	mc.Res = res
	return mc
}

func TestRunExecutesToCompletion(t *testing.T) {
	m, site := testModule(t)
	mc := machineFor(t, m, site, 1)
	if err := mc.Run("entry"); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRunUnknownEntry(t *testing.T) {
	m, site := testModule(t)
	mc := machineFor(t, m, site, 1)
	if err := mc.Run("nosuch"); err == nil {
		t.Fatal("Run of unknown function succeeded")
	}
}

func TestProfileRecordsEdgesAndTargets(t *testing.T) {
	m, site := testModule(t)
	mc := machineFor(t, m, site, 7)
	mc.Rec = NewRecorder(mc.Prog)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := mc.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	mc.Rec.AddOps(n)
	p, err := mc.Rec.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if p.Ops != n {
		t.Errorf("Ops = %d, want %d", p.Ops, n)
	}
	if p.Invocations["entry"] != n || p.Invocations["work"] != n {
		t.Errorf("invocations: entry=%d work=%d, want %d each",
			p.Invocations["entry"], p.Invocations["work"], n)
	}
	s := p.Sites[site]
	if s == nil || !s.Indirect() {
		t.Fatalf("site %d missing or not indirect: %+v", site, s)
	}
	if s.Count != n {
		t.Errorf("site count = %d, want %d", s.Count, n)
	}
	// 3:1 split within sampling noise.
	a, b := s.Targets["handler_a"], s.Targets["handler_b"]
	if a+b != n {
		t.Fatalf("targets sum to %d, want %d", a+b, n)
	}
	if a < 650 || a > 850 {
		t.Errorf("handler_a count = %d, want ≈750", a)
	}
	// The direct call edge must be attributed to its site with caller
	// and callee names.
	var foundDirect bool
	for _, ds := range p.Sites {
		if !ds.Indirect() && ds.Callee == "work" {
			foundDirect = true
			if ds.Caller != "entry" || ds.Count != n {
				t.Errorf("direct edge: caller=%q count=%d", ds.Caller, ds.Count)
			}
		}
	}
	if !foundDirect {
		t.Error("direct edge entry->work not recorded")
	}
}

func TestDeterministicCycles(t *testing.T) {
	m, site := testModule(t)
	run := func() int64 {
		mc := machineFor(t, m, site, 99)
		mc.CPU = cpu.New(cpu.DefaultParams())
		for i := 0; i < 200; i++ {
			if err := mc.Run("entry"); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		return mc.CPU.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different cycle counts: %d vs %d", a, b)
	}
}

func TestDefenseCostsShowUpInCycles(t *testing.T) {
	m, site := testModule(t)
	base := measure(t, m, site)

	// Harden the icall with a fenced retpoline and every ret with the
	// combined backward-edge defense; cycles must rise by at least the
	// thunk costs.
	hm := m.Clone()
	for _, f := range hm.Funcs {
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			switch in.Op {
			case ir.OpICall:
				in.Defense = ir.DefFencedRetpoline
			case ir.OpRet:
				in.Defense = ir.DefFencedRetRet
			}
		})
	}
	hard := measure(t, hm, site)
	if hard <= base {
		t.Fatalf("hardened cycles %d not greater than baseline %d", hard, base)
	}
	p := cpu.DefaultParams()
	// Per op: 1 fenced retpoline (42) + 3 returns upgraded from ~1 to 32.
	minDelta := int64(200) * (p.FencedRetpolineCost - p.IndirectCallCost + 3*(p.FencedRetRetCost-p.ReturnCost) - 90)
	if hard-base < minDelta {
		t.Errorf("delta = %d cycles over 200 ops, want >= %d", hard-base, minDelta)
	}
}

func measure(t *testing.T, m *ir.Module, site ir.SiteID) int64 {
	t.Helper()
	mc := machineFor(t, m, site, 5)
	mc.CPU = cpu.New(cpu.DefaultParams())
	for i := 0; i < 50; i++ { // warm predictors
		if err := mc.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	mc.CPU.Reset()
	for i := 0; i < 200; i++ {
		if err := mc.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	return mc.CPU.Cycles
}

func TestICallWithoutResolverFails(t *testing.T) {
	m, _ := testModule(t)
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	err = mc.Run("entry")
	if err == nil || !strings.Contains(err.Error(), "no target distribution") {
		t.Fatalf("Run = %v, want missing-distribution error", err)
	}
}

func TestInfiniteLoopHitsStepBudget(t *testing.T) {
	m := ir.NewModule()
	b := ir.NewFunction(m, "spin", 0)
	b.ALU(1).Jmp("entry")
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.MaxSteps = 1000
	err = mc.Run("spin")
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("Run = %v, want step-budget error", err)
	}
}

func TestDeepRecursionHitsDepthLimit(t *testing.T) {
	m := ir.NewModule()
	b := ir.NewFunction(m, "rec", 0)
	b.Call("rec", 0)
	b.Ret()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.MaxDepth = 32
	err = mc.Run("rec")
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("Run = %v, want depth error", err)
	}
}

func TestPromotionChainSemantics(t *testing.T) {
	// Hand-build a promoted site: resolve; cmp handler_a; flag-br to a
	// direct call, else fall back to the icall. Execution must call
	// exactly one of the two and the recorder must see the same target
	// mix as the unpromoted version.
	m := ir.NewModule()
	ha := ir.NewFunction(m, "handler_a", 0)
	ha.ALU(1).Ret()
	hb := ir.NewFunction(m, "handler_b", 0)
	hb.ALU(1).Ret()

	e := ir.NewFunction(m, "entry", 0)
	site, reg := e.Resolve()
	e.CmpFn(reg, "handler_a")
	e.BrFlag("direct", "fallback")
	e.NewBlock("direct")
	e.Call("handler_a", 0)
	e.Jmp("done")
	e.NewBlock("fallback")
	e.ICall(site, reg, 0)
	e.Jmp("done")
	e.NewBlock("done")
	e.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 42)
	res := NewResolver()
	d, _ := NewDist([]int{p.FuncIndex("handler_a"), p.FuncIndex("handler_b")}, []uint64{9, 1})
	res.Set(site, d)
	mc.Res = res
	mc.Rec = NewRecorder(p)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := mc.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	pr, err := mc.Rec.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	// handler_a invocations come through the promoted direct call;
	// handler_b through the fallback icall.
	if inv := pr.Invocations["handler_a"] + pr.Invocations["handler_b"]; inv != n {
		t.Fatalf("total handler invocations = %d, want %d", inv, n)
	}
	if pr.Invocations["handler_a"] < 1600 {
		t.Errorf("handler_a = %d, want ≈1800 (90%%)", pr.Invocations["handler_a"])
	}
	// The fallback icall's value profile must contain only handler_b.
	s := pr.Sites[site]
	if s == nil {
		t.Fatal("fallback icall site not in profile")
	}
	if _, hasA := s.Targets["handler_a"]; hasA {
		t.Error("promoted target handler_a still reaches the fallback icall")
	}
}

func TestDistPickRespectsWeights(t *testing.T) {
	d, err := NewDist([]int{0, 1, 2}, []uint64{0, 5, 5})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	if d.NumTargets() != 2 {
		t.Fatalf("NumTargets = %d, want 2 (zero-weight dropped)", d.NumTargets())
	}
	mc := NewMachine(&Program{}, 3)
	counts := map[int32]int{}
	for i := 0; i < 1000; i++ {
		counts[d.Pick(mc.RNG)]++
	}
	if counts[0] != 0 {
		t.Error("zero-weight target picked")
	}
	if counts[1] < 350 || counts[2] < 350 {
		t.Errorf("unbalanced picks: %v", counts)
	}
}

func TestNewDistErrors(t *testing.T) {
	if _, err := NewDist([]int{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewDist([]int{1}, []uint64{0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewDist([]int{-1}, []uint64{1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestCompileRejectsUnknownCallee(t *testing.T) {
	m := ir.NewModule()
	b := ir.NewFunction(m, "f", 0)
	b.Call("ghost", 0)
	b.Ret()
	if _, err := Compile(m); err == nil {
		t.Fatal("Compile accepted call to unknown function")
	}
}

// TestCompileRejectsOrigOutsideSiteBound: the recorder counts into
// tables indexed by Orig, so Compile must refuse an Orig no site of the
// module was allocated as, whether or not the caller ran ir.Verify.
func TestCompileRejectsOrigOutsideSiteBound(t *testing.T) {
	for _, orig := range []string{"999999", "-1"} {
		m, err := ir.ParseString(`func leaf (params=0, regs=0)
entry:
  ret

func main (params=0, regs=0) [entry]
entry:
  call @leaf args=0 site=1 orig=` + orig + `
  ret
`)
		if err != nil {
			t.Fatalf("ParseString: %v", err)
		}
		if _, err := Compile(m); err == nil || !strings.Contains(err.Error(), "orig "+orig) {
			t.Errorf("Compile with orig=%s: %v, want an out-of-bound orig error", orig, err)
		}
	}
}

// TestCompileRejectsMisplacedDefense: both engines index the CPU
// model's charge rows by defense, so Compile must refuse a defense that
// is undefined or does not guard its instruction's edge, whether or not
// the caller ran ir.Verify.
func TestCompileRejectsMisplacedDefense(t *testing.T) {
	m, err := ir.ParseString("func f (params=0, regs=0)\nentry:\n  ret [retpoline]\n")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if _, err := Compile(m); err == nil || !strings.Contains(err.Error(), "ret cannot carry defense retpoline") {
		t.Errorf("Compile of ret [retpoline]: %v", err)
	}
	m.Funcs[0].Entry().Instrs[0].Defense = 200
	if _, err := Compile(m); err == nil || !strings.Contains(err.Error(), "defense(200)") {
		t.Errorf("Compile of an undefined defense: %v", err)
	}
}

func TestSwitchExecutesAllArms(t *testing.T) {
	m := ir.NewModule()
	b := ir.NewFunction(m, "sw", 0)
	b.Switch([]string{"a", "b", "c"})
	b.NewBlock("a").ALU(1).Jmp("done")
	b.NewBlock("b").ALU(1).Jmp("done")
	b.NewBlock("c").ALU(1).Jmp("done")
	b.NewBlock("done").Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 11)
	mc.CPU = cpu.New(cpu.DefaultParams())
	for i := 0; i < 300; i++ {
		if err := mc.Run("sw"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if mc.CPU.Stats.BTBHits+mc.CPU.Stats.BTBMisses == 0 {
		t.Error("jump-table switch never used the BTB")
	}
}

func TestTripLoopDeterministicCount(t *testing.T) {
	m := ir.NewModule()
	leaf := ir.NewFunction(m, "leaf", 0)
	leaf.ALU(1).Ret()
	f := ir.NewFunction(m, "f", 0)
	f.Jmp("loop")
	f.NewBlock("loop")
	f.Call("leaf", 0)
	f.BrLoop(17, "loop", "out")
	f.NewBlock("out")
	f.Ret()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.Rec = NewRecorder(p)
	const runs = 9
	for i := 0; i < runs; i++ {
		if err := mc.Run("f"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	pr, err := mc.Rec.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if got := pr.Invocations["leaf"]; got != 17*runs {
		t.Fatalf("leaf invocations = %d, want %d (exactly 17 per activation)", got, 17*runs)
	}
}

func TestRefillRSBFlagChargesEntryCost(t *testing.T) {
	m, site := testModule(t)
	run := func(refill bool) int64 {
		mc := machineFor(t, m, site, 3)
		mc.CPU = cpu.New(cpu.DefaultParams())
		mc.RefillRSB = refill
		for i := 0; i < 100; i++ {
			if err := mc.Run("entry"); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		return mc.CPU.Cycles
	}
	plain, refilled := run(false), run(true)
	delta := refilled - plain
	refillTotal := 100 * cpu.DefaultParams().RSBRefillCost
	// The refill cost dominates the delta; refilling also perturbs RSB
	// hit rates a little, so allow slack around the stuffing cost.
	if delta < refillTotal/2 || delta > refillTotal*2 {
		t.Fatalf("refill delta = %d cycles, want near %d", delta, refillTotal)
	}
}

type countingHook struct{ calls int }

func (h *countingHook) Handle(m *cpu.Model, site ir.SiteID, siteAddr, targetAddr, retAddr int64, target int32) bool {
	h.calls++
	m.Cycles += 5
	return true
}

func TestICallHookInterceptsUnhardenedSitesOnly(t *testing.T) {
	m, site := testModule(t)
	hook := &countingHook{}
	mc := machineFor(t, m, site, 3)
	mc.CPU = cpu.New(cpu.DefaultParams())
	mc.Hook = hook
	for i := 0; i < 10; i++ {
		if err := mc.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if hook.calls != 10 {
		t.Fatalf("hook calls = %d, want 10", hook.calls)
	}
	// Harden the icall: the hook must no longer be consulted.
	hm := m.Clone()
	hm.Func("entry").ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpICall {
			in.Defense = ir.DefRetpoline
		}
	})
	hook2 := &countingHook{}
	mc2 := machineFor(t, hm, site, 3)
	mc2.CPU = cpu.New(cpu.DefaultParams())
	mc2.Hook = hook2
	for i := 0; i < 10; i++ {
		if err := mc2.Run("entry"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if hook2.calls != 0 {
		t.Fatalf("hook consulted for hardened sites: %d calls", hook2.calls)
	}
}

func BenchmarkInterpreterThroughput(b *testing.B) {
	m := ir.NewModule()
	leaf := ir.NewFunction(m, "leaf", 0)
	leaf.ALU(5).Ret()
	f := ir.NewFunction(m, "f", 0)
	f.Jmp("loop")
	f.NewBlock("loop")
	f.ALU(20)
	f.Call("leaf", 1)
	f.BrLoop(100, "loop", "out")
	f.NewBlock("out")
	f.Ret()
	p, err := Compile(m)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.CPU = cpu.New(cpu.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.Run("f"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mc.CPU.Stats.Instructions)/float64(b.N), "sim-instrs/op")
}
