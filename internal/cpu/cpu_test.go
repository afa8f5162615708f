package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func newModel() *Model { return New(DefaultParams()) }

func TestBTBLearnsAndPredicts(t *testing.T) {
	m := newModel()
	// First execution misses, second hits (same target).
	m.IndirectCall(0x1000, 0x2000, 0x1005, 0, ir.DefNone)
	if m.Stats.BTBMisses != 1 {
		t.Fatalf("first call: misses = %d, want 1", m.Stats.BTBMisses)
	}
	c1 := m.Cycles
	m.IndirectCall(0x1000, 0x2000, 0x1005, 0, ir.DefNone)
	if m.Stats.BTBHits != 1 {
		t.Fatalf("second call: hits = %d, want 1", m.Stats.BTBHits)
	}
	if hitCost := m.Cycles - c1; hitCost >= c1 {
		t.Errorf("BTB hit cost %d should be cheaper than miss cost %d", hitCost, c1)
	}
	// Target change mispredicts again.
	m.IndirectCall(0x1000, 0x3000, 0x1005, 0, ir.DefNone)
	if m.Stats.BTBMisses != 2 {
		t.Errorf("target change: misses = %d, want 2", m.Stats.BTBMisses)
	}
}

func TestBTBAliasing(t *testing.T) {
	m := newModel()
	stride := int64(m.P.BTBEntries) // addresses that alias to the same slot
	m.IndirectCall(0x1000, 0xAAAA, 0, 0, ir.DefNone)
	m.IndirectCall(0x1000+stride, 0xBBBB, 0, 0, ir.DefNone)
	// The second call evicted the first's prediction.
	m.IndirectCall(0x1000, 0xAAAA, 0, 0, ir.DefNone)
	if m.Stats.BTBMisses != 3 {
		t.Errorf("aliasing: misses = %d, want 3 (all mispredict)", m.Stats.BTBMisses)
	}
}

func TestRetpolineIgnoresBTBState(t *testing.T) {
	m := newModel()
	m.PoisonBTB(0x1000, 0xDEAD)
	before := m.Cycles
	m.IndirectCall(0x1000, 0x2000, 0x1005, 0, ir.DefRetpoline)
	if got := m.Cycles - before; got != m.P.RetpolineCost {
		t.Errorf("retpoline cost = %d, want %d", got, m.P.RetpolineCost)
	}
	// The poisoned entry must not have been retrained: retpolines never
	// consult or update the BTB.
	if m.PredictIndirect(0x1000) != 0xDEAD {
		t.Error("retpoline updated the BTB")
	}
	if m.Stats.BTBHits+m.Stats.BTBMisses != 0 {
		t.Error("retpoline consulted the BTB")
	}
}

func TestRSBMatchesCallReturnPairs(t *testing.T) {
	m := newModel()
	m.DirectCall(0x100, 0)
	m.DirectCall(0x200, 0)
	m.Return(0x200, ir.DefNone)
	m.Return(0x100, ir.DefNone)
	if m.Stats.RSBHits != 2 || m.Stats.RSBMisses != 0 {
		t.Errorf("hits=%d misses=%d, want 2/0", m.Stats.RSBHits, m.Stats.RSBMisses)
	}
}

func TestRSBMismatchMispredicts(t *testing.T) {
	m := newModel()
	m.DirectCall(0x100, 0)
	m.Return(0x999, ir.DefNone) // return address overwritten
	if m.Stats.RSBMisses != 1 {
		t.Errorf("misses = %d, want 1", m.Stats.RSBMisses)
	}
}

func TestRSBOverflowLosesDeepFrames(t *testing.T) {
	m := newModel()
	depth := m.P.RSBDepth + 4
	for i := 0; i < depth; i++ {
		m.DirectCall(int64(0x1000+i), 0)
	}
	for i := depth - 1; i >= 0; i-- {
		m.Return(int64(0x1000+i), ir.DefNone)
	}
	// The RSBDepth most recent frames predict; the 4 oldest were
	// overwritten, and after underflow they mispredict.
	if m.Stats.RSBHits != int64(m.P.RSBDepth) {
		t.Errorf("hits = %d, want %d", m.Stats.RSBHits, m.P.RSBDepth)
	}
	if m.Stats.RSBMisses != 4 {
		t.Errorf("misses = %d, want 4", m.Stats.RSBMisses)
	}
}

func TestReturnThunkCosts(t *testing.T) {
	cases := []struct {
		def  ir.Defense
		cost int64
	}{
		{ir.DefRetRetpoline, DefaultParams().RetRetpolineCost},
		{ir.DefFencedRetRet, DefaultParams().FencedRetRetCost},
	}
	for _, c := range cases {
		m := newModel()
		m.DirectCall(0x100, 0)
		before := m.Cycles
		m.Return(0x100, c.def)
		if got := m.Cycles - before; got != c.cost {
			t.Errorf("%v: cost = %d, want %d", c.def, got, c.cost)
		}
	}
}

func TestLVIReturnAddsFenceToPredictedReturn(t *testing.T) {
	m := newModel()
	m.DirectCall(0x100, 0)
	before := m.Cycles
	m.Return(0x100, ir.DefLVIRet)
	want := m.P.ReturnCost + m.P.LVIReturnCost
	if got := m.Cycles - before; got != want {
		t.Errorf("LVI return cost = %d, want %d", got, want)
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	// The per-edge thunk costs must reproduce the ordering of Table 1:
	// fenced retpoline > retpoline > LVI forward, and combined backward
	// (32) > return retpoline (16) > LVI return (11).
	p := DefaultParams()
	if !(p.FencedRetpolineCost > p.RetpolineCost && p.RetpolineCost > p.LVIForwardCost) {
		t.Error("forward-edge cost ordering violated")
	}
	if !(p.FencedRetRetCost > p.RetRetpolineCost && p.RetRetpolineCost > p.LVIReturnCost) {
		t.Error("backward-edge cost ordering violated")
	}
	if p.FencedRetpolineCost != 42 || p.FencedRetRetCost != 32 {
		t.Errorf("combined defense costs (%d fwd, %d bwd) diverge from §6.3 (42/32)",
			p.FencedRetpolineCost, p.FencedRetRetCost)
	}
}

func TestPHTLearnsBias(t *testing.T) {
	m := newModel()
	for i := 0; i < 100; i++ {
		m.CondBranch(0x500, true)
	}
	hits := m.Stats.PHTHits
	if hits < 95 {
		t.Errorf("strongly biased branch: hits = %d/100, want >= 95", hits)
	}
	// Flip direction: the 2-bit counter takes two executions to follow.
	m.CondBranch(0x500, false)
	if m.Stats.PHTMisses < 1 {
		t.Error("direction flip should mispredict")
	}
}

func TestICacheHitsAfterWarmup(t *testing.T) {
	m := newModel()
	m.Straightline(10, 5, 0x4000, 2)
	if m.Stats.ICacheMisses != 2 {
		t.Fatalf("cold misses = %d, want 2", m.Stats.ICacheMisses)
	}
	m.Straightline(10, 5, 0x4000, 2)
	if m.Stats.ICacheHits != 2 {
		t.Errorf("warm hits = %d, want 2", m.Stats.ICacheHits)
	}
}

func TestICacheCapacityEviction(t *testing.T) {
	m := newModel()
	// Touch ways+1 distinct lines mapping to the same set, then re-touch
	// the first: it must have been evicted (LRU).
	setStride := m.P.ICacheLine * int64(m.P.ICacheSets)
	for i := 0; i <= m.P.ICacheWays; i++ {
		m.Straightline(0, 0, int64(i)*setStride, 1)
	}
	missesBefore := m.Stats.ICacheMisses
	m.Straightline(0, 0, 0, 1)
	if m.Stats.ICacheMisses != missesBefore+1 {
		t.Error("LRU line was not evicted at capacity")
	}
}

func TestResetPreservesPredictors(t *testing.T) {
	m := newModel()
	m.IndirectCall(0x1000, 0x2000, 0, 0, ir.DefNone)
	m.Reset()
	if m.Cycles != 0 || m.Stats.BTBMisses != 0 {
		t.Fatal("Reset did not clear measurement state")
	}
	m.IndirectCall(0x1000, 0x2000, 0, 0, ir.DefNone)
	if m.Stats.BTBHits != 1 {
		t.Error("Reset flushed predictor state; warmed BTB expected")
	}
	m.ResetAll()
	m.IndirectCall(0x1000, 0x2000, 0, 0, ir.DefNone)
	if m.Stats.BTBMisses != 1 {
		t.Error("ResetAll did not flush the BTB")
	}
}

func TestPoisonAndPredictRoundTrip(t *testing.T) {
	m := newModel()
	m.PoisonBTB(0xBEEF, 0x6666)
	if got := m.PredictIndirect(0xBEEF); got != 0x6666 {
		t.Errorf("PredictIndirect = %#x, want 0x6666", got)
	}
	m.PoisonRSB(0x7777, 1)
	if got, ok := m.PredictReturn(); !ok || got != 0x7777 {
		t.Errorf("PredictReturn = %#x,%v, want 0x7777,true", got, ok)
	}
}

func TestMicrosConversion(t *testing.T) {
	m := newModel()
	m.Cycles = 3700
	if got := m.Micros(); got < 0.999 || got > 1.001 {
		t.Errorf("3700 cycles at 3.7GHz = %v µs, want 1.0", got)
	}
}

// Property: cycles are monotonically non-decreasing under any event
// sequence, and hardened calls never train the BTB.
func TestCyclesMonotoneQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newModel()
		prev := int64(0)
		for i, op := range ops {
			addr := int64(i) * 37
			switch op % 6 {
			case 0:
				m.DirectCall(addr, int32(op%4))
			case 1:
				m.IndirectCall(addr, addr+1000, addr+5, 0, ir.DefNone)
			case 2:
				m.IndirectCall(addr, addr+1000, addr+5, 0, ir.DefFencedRetpoline)
			case 3:
				m.Return(addr, ir.DefNone)
			case 4:
				m.CondBranch(addr, op%2 == 0)
			case 5:
				m.Straightline(int64(op), 1, addr, 1)
			}
			if m.Cycles < prev {
				return false
			}
			prev = m.Cycles
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// defenseCost reads what def adds on every edge it guards from the
// model's charge rows: its flat cost where it replaces prediction, its
// extra over the undefended dispatch where it keeps it. ok is false when
// def guards no edge, adds nothing, or adds different costs on its edges.
func defenseCost(m *Model, def ir.Defense) (int64, bool) {
	cost, ok := int64(0), false
	for _, e := range []struct {
		edge ir.Edge
		rows *[ir.NumDefenses + 1]Charge
	}{
		{ir.EdgeCall, &m.charges.Call}, {ir.EdgeRet, &m.charges.Ret}, {ir.EdgeJump, &m.charges.Jump},
	} {
		if def.Info().Edges&e.edge == 0 {
			continue
		}
		c := e.rows[def].Cost
		if e.rows[def].Predicted {
			c -= e.rows[ir.DefNone].Cost
		}
		if c <= 0 || (ok && c != cost) {
			return 0, false
		}
		cost, ok = c, true
	}
	return cost, ok
}

func TestDefenseCostTable(t *testing.T) {
	m := newModel()
	for def := ir.DefRetpoline; def <= ir.DefFencedRetRet; def++ {
		if c, ok := defenseCost(m, def); !ok {
			t.Errorf("defenseCost(%v) not defined", def)
		} else if want := m.P.defenseCosts()[def]; c != want {
			t.Errorf("defenseCost(%v) = %d, want %d", def, c, want)
		}
	}
	if _, ok := defenseCost(m, ir.DefNone); ok {
		t.Error("defenseCost(none) should report !ok")
	}
}

func TestNonTransientDefenseCosts(t *testing.T) {
	// LLVM-CFI adds a check to a still-predicted dispatch.
	m := newModel()
	m.IndirectCall(0x1000, 0x2000, 0x1005, 0, ir.DefLLVMCFI) // trains BTB
	before := m.Cycles
	m.IndirectCall(0x1000, 0x2000, 0x1005, 0, ir.DefLLVMCFI)
	want := m.P.IndirectCallCost + m.P.CFICheckCost
	if got := m.Cycles - before; got != want {
		t.Errorf("LLVM-CFI predicted icall = %d, want %d", got, want)
	}
	// Stack protector and safestack add small costs to predicted returns.
	for _, c := range []struct {
		def   ir.Defense
		extra int64
	}{
		{ir.DefStackProtector, DefaultParams().StackProtectorCost},
		{ir.DefSafeStack, DefaultParams().SafeStackCost},
	} {
		m := newModel()
		m.DirectCall(0x100, 0)
		before := m.Cycles
		m.Return(0x100, c.def)
		want := m.P.ReturnCost + c.extra
		if got := m.Cycles - before; got != want {
			t.Errorf("%v return = %d, want %d", c.def, got, want)
		}
	}
}

func TestRefillRSBReplacesPoison(t *testing.T) {
	m := newModel()
	m.PoisonRSB(0x6666, 4)
	before := m.Cycles
	m.RefillRSB()
	if got := m.Cycles - before; got != m.P.RSBRefillCost {
		t.Errorf("refill cost = %d, want %d", got, m.P.RSBRefillCost)
	}
	if tgt, ok := m.PredictReturn(); !ok || tgt == 0x6666 {
		t.Errorf("RSB top after refill = %#x,%v; poison must be gone", tgt, ok)
	}
	// Refilled entries are benign but wrong: the next matched
	// call/return pair still predicts correctly.
	m.DirectCall(0x100, 0)
	m.Return(0x100, ir.DefNone)
	if m.Stats.RSBHits == 0 {
		t.Error("call/return after refill did not predict")
	}
}

func TestHardwareAssistedForwardCosts(t *testing.T) {
	// FineIBT, PAC and VeriFence keep the dispatch BTB-predicted and add
	// a flat per-class check on top — unlike retpolines, which forgo
	// prediction entirely.
	cases := []struct {
		def   ir.Defense
		extra int64
	}{
		{ir.DefFineIBT, DefaultParams().FineIBTCheckCost},
		{ir.DefPAC, DefaultParams().PACSignCost},
		{ir.DefVeriFence, DefaultParams().VeriFenceCost},
	}
	for _, c := range cases {
		m := newModel()
		m.IndirectCall(0x1000, 0x2000, 0x1005, 0, c.def) // trains BTB
		if m.Stats.BTBMisses != 1 {
			t.Errorf("%v: cold call misses = %d, want 1 (still predicted)", c.def, m.Stats.BTBMisses)
		}
		before := m.Cycles
		m.IndirectCall(0x1000, 0x2000, 0x1005, 0, c.def)
		want := m.P.IndirectCallCost + c.extra
		if got := m.Cycles - before; got != want {
			t.Errorf("%v predicted icall = %d, want %d", c.def, got, want)
		}
		if m.Stats.ThunkedCalls != 2 {
			t.Errorf("%v: ThunkedCalls = %d, want 2", c.def, m.Stats.ThunkedCalls)
		}
	}
}

func TestPACReturnAuthCost(t *testing.T) {
	m := newModel()
	m.DirectCall(0x100, 0)
	before := m.Cycles
	m.Return(0x100, ir.DefPACRet)
	want := m.P.ReturnCost + m.P.PACAuthCost
	if got := m.Cycles - before; got != want {
		t.Errorf("pac-ret predicted return = %d, want %d", got, want)
	}
	if m.Stats.RSBHits != 1 {
		t.Error("pac-ret must keep the RSB prediction")
	}
}

func TestVeriFenceIndirectJumpCost(t *testing.T) {
	m := newModel()
	m.IndirectJump(0x3000, 0x4000, ir.DefVeriFence) // cold: miss + fence
	missCost := m.Cycles
	before := m.Cycles
	m.IndirectJump(0x3000, 0x4000, ir.DefVeriFence)
	want := m.P.IndirectCallCost + m.P.VeriFenceCost
	if got := m.Cycles - before; got != want {
		t.Errorf("fenced predicted ijump = %d, want %d", got, want)
	}
	if missCost <= want {
		t.Errorf("cold fenced ijump %d not dearer than warm %d", missCost, want)
	}
}

func TestNewBackendCostOrdering(t *testing.T) {
	// The new backends' whole point is a predicted dispatch plus a cheap
	// check: each per-call cost must undercut the retpoline thunk.
	p := DefaultParams()
	for name, c := range map[string]int64{
		"fineibt": p.FineIBTCheckCost, "pac-sign": p.PACSignCost, "verifence": p.VeriFenceCost,
	} {
		if c >= p.RetpolineCost {
			t.Errorf("%s check cost %d not cheaper than retpoline %d", name, c, p.RetpolineCost)
		}
	}
	if p.PACAuthCost >= p.RetRetpolineCost {
		t.Errorf("pac auth %d not cheaper than return retpoline %d", p.PACAuthCost, p.RetRetpolineCost)
	}
}

func TestDefenseCostTableNewBackends(t *testing.T) {
	m := newModel()
	for _, def := range []ir.Defense{ir.DefFineIBT, ir.DefPAC, ir.DefPACRet, ir.DefVeriFence} {
		if c, ok := defenseCost(m, def); !ok {
			t.Errorf("defenseCost(%v) not defined", def)
		} else if want := m.P.defenseCosts()[def]; c != want {
			t.Errorf("defenseCost(%v) = %d, want %d", def, c, want)
		}
	}
}
