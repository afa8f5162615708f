package attack

import (
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
)

var edges = []ir.Edge{ir.EdgeCall, ir.EdgeRet, ir.EdgeJump}

var edgeName = map[ir.Edge]string{ir.EdgeCall: "calls", ir.EdgeRet: "returns", ir.EdgeJump: "jumps"}

// edgeCharge runs two events of one edge under def on a fresh model and
// returns their cycle costs and the model's counters: the first event
// mispredicts (a cold BTB slot, an empty RSB), the second predicts.
func edgeCharge(p cpu.Params, e ir.Edge, def ir.Defense) (miss, hit int64, st cpu.Counters) {
	m := cpu.New(p)
	var c [2]int64
	for i := range c {
		if e == ir.EdgeRet && i == 1 {
			m.DirectCall(0x1005, 0)
		}
		before := m.Cycles
		switch e {
		case ir.EdgeCall:
			m.IndirectCall(0x1000, 0x2000, 0x1005, 0, def)
		case ir.EdgeRet:
			m.Return(0x1005, def)
		case ir.EdgeJump:
			m.IndirectJump(0x1000, 0x2000, def)
		}
		c[i] = m.Cycles - before
	}
	st = m.Stats
	st.DirectCalls, st.IndirectCalls, st.Returns = 0, 0, 0
	return c[0], c[1], st
}

// hijacked runs the predictor attack of edge e (Spectre V2 on calls and
// jumps, Ret2spec on returns) against def.
func hijacked(e ir.Edge, def ir.Defense) Outcome {
	m := model()
	if e == ir.EdgeRet {
		m.DirectCall(0x1005, 0)
		return Ret2spec(m, def, 4)
	}
	return SpectreV2(m, 0x1000, e, def)
}

// TestEveryDefenseWalked walks every Defense value through its
// descriptor row, its CPU-model charge on every edge and every attack.
// The expected charges pin the model's cycle accounting per defense; the
// expected verdicts follow DESIGN.md §15.
func TestEveryDefenseWalked(t *testing.T) {
	p := cpu.DefaultParams()
	const (
		call = ir.EdgeCall
		ret  = ir.EdgeRet
		jump = ir.EdgeJump
	)
	want := [ir.NumDefenses]struct {
		edges     ir.Edge
		cost      int64 // flat cost, or the extra over a predicted dispatch
		predicted bool
		thunk     bool
		hijack    bool // Spectre V2 on calls and jumps, Ret2spec on returns
		lvi       bool
	}{
		ir.DefNone:            {call | ret | jump, 0, true, false, true, true},
		ir.DefRetpoline:       {call | jump, p.RetpolineCost, false, true, false, true},
		ir.DefLVI:             {call, p.LVIForwardCost, true, true, true, false},
		ir.DefFencedRetpoline: {call, p.FencedRetpolineCost, false, true, false, false},
		ir.DefRetRetpoline:    {ret, p.RetRetpolineCost, false, true, false, true},
		ir.DefLVIRet:          {ret, p.LVIReturnCost, true, true, true, false},
		ir.DefFencedRetRet:    {ret, p.FencedRetRetCost, false, true, false, false},
		ir.DefLLVMCFI:         {call, p.CFICheckCost, true, false, true, true},
		ir.DefStackProtector:  {ret, p.StackProtectorCost, true, false, true, true},
		ir.DefSafeStack:       {ret, p.SafeStackCost, true, false, true, true},
		ir.DefFineIBT:         {call, p.FineIBTCheckCost, true, true, true, true},
		ir.DefPAC:             {call, p.PACSignCost, true, true, true, true},
		ir.DefPACRet:          {ret, p.PACAuthCost, true, true, true, true},
		ir.DefVeriFence:       {call | jump, p.VeriFenceCost, true, true, true, false},
	}
	// worst is the charge of an edge a defense cannot guard.
	worst := func(e ir.Edge) int64 {
		if e == ret {
			return p.FencedRetRetCost
		}
		return p.FencedRetpolineCost
	}
	names := map[string]ir.Defense{}
	for d := ir.DefNone; d < ir.NumDefenses; d++ {
		w, info := want[d], d.Info()
		if prev, dup := names[info.Name]; dup || info.Name == "" {
			t.Errorf("%d: name %q empty or shared with %d", d, info.Name, prev)
		}
		names[info.Name] = d
		if info.Edges != w.edges {
			t.Errorf("%v: edges %03b, want %03b (jump, ret, call)", d, info.Edges, w.edges)
		}
		if (info.Bytes > 0) != (d != ir.DefNone) {
			t.Errorf("%v: %d bytes", d, info.Bytes)
		}
		if d != ir.DefNone {
			checkRoundTrip(t, d)
		}
		if lvi := LVI(d); lvi.Vulnerable != w.lvi {
			t.Errorf("%v: LVI vulnerable=%v (%s), want %v", d, lvi.Vulnerable, lvi.Reason, w.lvi)
		}
		for _, e := range edges {
			miss, hit, st := edgeCharge(p, e, d)
			var wantSt cpu.Counters
			wantMiss, wantHit := worst(e), worst(e)
			thunk := true
			if info.Edges&e != 0 {
				thunk = w.thunk
				wantMiss, wantHit = w.cost, w.cost
				if w.predicted {
					base := p.IndirectCallCost
					if e == ret {
						base = p.ReturnCost
						wantSt.RSBHits, wantSt.RSBMisses = 1, 1
					} else {
						wantSt.BTBHits, wantSt.BTBMisses = 1, 1
					}
					wantHit = base + w.cost
					wantMiss = wantHit + p.MispredictPenalty
				}
				if (w.cost > 0) != (d != ir.DefNone) {
					t.Errorf("%v on %s: cost %d", d, edgeName[e], w.cost)
				}
				if out := hijacked(e, d); out.Vulnerable != w.hijack {
					t.Errorf("%v on %s: vulnerable=%v (%s), want %v", d, edgeName[e], out.Vulnerable, out.Reason, w.hijack)
				}
			} else if out := hijacked(e, d); !out.Vulnerable {
				t.Errorf("%v on unguarded %s reported safe: %s", d, edgeName[e], out.Reason)
			}
			if thunk && e == call {
				wantSt.ThunkedCalls = 2
			}
			if thunk && e == ret {
				wantSt.ThunkedRets = 2
			}
			if miss != wantMiss || hit != wantHit || st != wantSt {
				t.Errorf("%v on %s: charged %d/%d %+v, want %d/%d %+v",
					d, edgeName[e], miss, hit, st, wantMiss, wantHit, wantSt)
			}
		}
	}
	// Undefined values charge the worst case and protect nothing.
	for _, d := range []ir.Defense{ir.NumDefenses, 200, 255} {
		for _, e := range edges {
			miss, hit, _ := edgeCharge(p, e, d)
			if miss != worst(e) || hit != worst(e) {
				t.Errorf("%v on %s: charged %d/%d, want %d", d, edgeName[e], miss, hit, worst(e))
			}
			if !hijacked(e, d).Vulnerable {
				t.Errorf("%v on %s reported safe", d, edgeName[e])
			}
		}
		if !LVI(d).Vulnerable {
			t.Errorf("%v reported LVI-safe", d)
		}
	}
}

// checkRoundTrip places d on each edge it guards, prints and re-parses
// the module, and expects the same defense back on a module that
// verifies.
func checkRoundTrip(t *testing.T, d ir.Defense) {
	t.Helper()
	m := siteModule(d, d.Info().Edges)
	got, err := ir.ParseString(ir.PrintModule(m))
	if err != nil {
		t.Fatalf("%v: Parse: %v", d, err)
	}
	if err := ir.Verify(got, ir.VerifyOptions{}); err != nil {
		t.Errorf("%v: reparsed module does not verify: %v", d, err)
	}
	got.Func("f").ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if e := in.Edge(); e != 0 && d.Info().Edges&e != 0 && in.Defense != d {
			t.Errorf("%v: %v reparsed with %v", d, in.Op, in.Defense)
		}
	})
}

// siteModule builds a function with one indirect call, one jump-table
// switch and one return, and puts def on those whose edge is in on.
func siteModule(def ir.Defense, on ir.Edge) *ir.Module {
	m := ir.NewModule()
	f := ir.NewFunction(m, "f", 0)
	f.IndirectCall(0)
	f.Switch([]string{"a"})
	f.NewBlock("a").Ret()
	f.Func().ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Edge()&on != 0 {
			in.Defense = def
		}
	})
	return m
}

// TestEvaluateMatchesSiteVerdicts: for every defense on every edge it
// guards, Evaluate's counts for a module whose only defended site sits
// on that edge equal the per-site verdicts.
func TestEvaluateMatchesSiteVerdicts(t *testing.T) {
	b := func(o Outcome) int {
		if o.Vulnerable {
			return 1
		}
		return 0
	}
	for d := ir.DefNone; d < ir.NumDefenses; d++ {
		for _, e := range edges {
			if d.Info().Edges&e == 0 {
				continue
			}
			m := siteModule(d, e)
			if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
				t.Fatalf("%v on %s: %v", d, edgeName[e], err)
			}
			r := Evaluate(m)
			// Evaluate counts, then the per-site verdicts they must equal.
			var got []int
			switch e {
			case ir.EdgeCall:
				got = []int{r.TotalICalls, r.ICallsSpectreV2, r.ICallsLVI}
			case ir.EdgeRet:
				got = []int{r.TotalReturns, r.ReturnsRet2spec, r.ReturnsLVI}
			case ir.EdgeJump:
				got = []int{r.TotalIJumps, r.IJumpsSpectreV2}
			}
			want := []int{1, b(hijacked(e, d)), b(LVI(d))}[:len(got)]
			if !slices.Equal(got, want) {
				t.Errorf("%v on %s: Evaluate counts %v, site verdicts %v (%+v)", d, edgeName[e], got, want, r)
			}
		}
	}
}
