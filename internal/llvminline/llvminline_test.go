package llvminline

import (
	"strings"
	"testing"

	"repro/internal/inlinecost"
	"repro/internal/ir"
	"repro/internal/prof"
)

// buildModule: caller calls tiny (cost < cold threshold), midsize (cost
// between cold and hot thresholds) and huge (cost > hot threshold).
func buildModule(t *testing.T) (*ir.Module, *prof.Profile, map[string]ir.SiteID) {
	t.Helper()
	m := ir.NewModule()
	tiny := ir.NewFunction(m, "tiny", 0)
	tiny.ALU(10).Ret() // cost 55
	mid := ir.NewFunction(m, "mid", 0)
	mid.ALU(199).Ret() // cost 1000
	huge := ir.NewFunction(m, "huge", 0)
	huge.ALU(799).Ret() // cost 4000

	caller := ir.NewFunction(m, "caller", 0)
	sites := map[string]ir.SiteID{
		"tiny": caller.Call("tiny", 0),
		"mid":  caller.Call("mid", 0),
		"huge": caller.Call("huge", 0),
	}
	caller.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if c := inlinecost.Function(m.Func("mid")); c != 1000 {
		t.Fatalf("mid cost = %d", c)
	}
	p := prof.New()
	p.AddDirect(sites["tiny"], "caller", "tiny", 10)
	p.AddDirect(sites["mid"], "caller", "mid", 1000)
	p.AddDirect(sites["huge"], "caller", "huge", 1000)
	return m, p, sites
}

func TestThresholdsRespectHotness(t *testing.T) {
	m, p, sites := buildModule(t)
	// Budget 0.99 makes mid and huge hot (weight 1000 each of 2010);
	// tiny (weight 10) stays cold but is below the cold threshold.
	res, err := Run(m, p, Options{Budget: 0.99})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// tiny inlined (cold but small), mid inlined (hot, under 3000),
	// huge not (over the hot threshold).
	if res.Inlined != 2 {
		t.Errorf("Inlined = %d, want 2", res.Inlined)
	}
	if _, _, ok := findSite(m.Func("caller"), sites["huge"]); !ok {
		t.Error("huge was inlined despite exceeding the hot threshold")
	}
	if _, _, ok := findSite(m.Func("caller"), sites["mid"]); ok {
		t.Error("hot mid-size callee was not inlined")
	}
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("post Verify: %v", err)
	}
}

func TestColdSiteUsesColdThreshold(t *testing.T) {
	m, p, sites := buildModule(t)
	// Zero budget: nothing is hot; only tiny (cost 55 < 225) inlines.
	res, err := Run(m, p, Options{Budget: 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Inlined != 1 {
		t.Errorf("Inlined = %d, want 1 (tiny only)", res.Inlined)
	}
	if _, _, ok := findSite(m.Func("caller"), sites["mid"]); !ok {
		t.Error("cold mid-size callee was inlined")
	}
}

func TestInlineHintRaisesThreshold(t *testing.T) {
	m, p, sites := buildModule(t)
	m.Func("mid").Attrs |= ir.AttrInlineHint
	res, err := Run(m, p, Options{Budget: 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// tiny + hinted mid.
	if res.Inlined != 2 {
		t.Errorf("Inlined = %d, want 2", res.Inlined)
	}
	if _, _, ok := findSite(m.Func("caller"), sites["mid"]); ok {
		t.Error("hinted mid was not inlined")
	}
}

func TestBottomUpOrderInlinesTransitively(t *testing.T) {
	// c -> b -> a, all tiny: bottom-up visits a's callers first, so b
	// absorbs a, then c absorbs the combined body.
	m := ir.NewModule()
	a := ir.NewFunction(m, "a", 0)
	a.ALU(2).Ret()
	b := ir.NewFunction(m, "b", 0)
	sa := b.Call("a", 0)
	b.Ret()
	c := ir.NewFunction(m, "c", 0)
	sb := c.Call("b", 0)
	c.Ret()
	p := prof.New()
	p.AddDirect(sa, "b", "a", 5)
	p.AddDirect(sb, "c", "b", 5)
	res, err := Run(m, p, Options{Budget: 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Inlined < 2 {
		t.Errorf("Inlined = %d, want >= 2", res.Inlined)
	}
	calls := 0
	m.Func("c").ForEachInstr(func(blk *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 0 {
		t.Errorf("c still contains %d calls", calls)
	}
}

func TestNoInlineRespected(t *testing.T) {
	m, p, sites := buildModule(t)
	m.Func("tiny").Attrs |= ir.AttrNoInline
	res, err := Run(m, p, Options{Budget: 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Inlined != 0 {
		t.Errorf("Inlined = %d, want 0", res.Inlined)
	}
	if _, _, ok := findSite(m.Func("caller"), sites["tiny"]); !ok {
		t.Error("noinline tiny was inlined")
	}
}

// buildDiamond: main -> {a, b}, a -> leaf, b -> leaf, plus an indirect
// call in main profiled to hit a and b.
func buildDiamond(t *testing.T) (*ir.Module, *prof.Profile) {
	t.Helper()
	m := ir.NewModule()
	leaf := ir.NewFunction(m, "leaf", 0)
	leaf.ALU(1).Ret()
	a := ir.NewFunction(m, "a", 0)
	sa := a.Call("leaf", 0)
	a.Ret()
	b := ir.NewFunction(m, "b", 0)
	sb := b.Call("leaf", 0)
	b.Ret()
	main := ir.NewFunction(m, "main", 0)
	s1 := main.Call("a", 0)
	s2 := main.Call("b", 0)
	si := main.IndirectCall(0)
	main.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	p := prof.New()
	p.AddDirect(s1, "main", "a", 100)
	p.AddDirect(s2, "main", "b", 50)
	p.AddDirect(sa, "a", "leaf", 100)
	p.AddDirect(sb, "b", "leaf", 50)
	p.AddIndirect(si, "main", "a", 30)
	p.AddIndirect(si, "main", "b", 10)
	p.AddInvocation("main", 1)
	p.AddInvocation("a", 130)
	p.AddInvocation("b", 60)
	p.AddInvocation("leaf", 150)
	return m, p
}

func TestPostOrderBottomUp(t *testing.T) {
	m, p := buildDiamond(t)
	order := postOrder(m, p)
	pos := make(map[string]int)
	for i, f := range order {
		pos[f] = i
	}
	if len(order) != 4 {
		t.Fatalf("order = %v, want 4 entries", order)
	}
	if pos["leaf"] > pos["a"] || pos["leaf"] > pos["b"] {
		t.Errorf("leaf must precede its callers: %v", order)
	}
	if pos["a"] > pos["main"] || pos["b"] > pos["main"] {
		t.Errorf("callees must precede main: %v", order)
	}
}

// TestPostOrderVisitsHottestEdgeFirst: from a root listed first, the
// walk follows its out-edges by profile weight descending, then site,
// then callee, with one edge per profiled target of an indirect site.
func TestPostOrderVisitsHottestEdgeFirst(t *testing.T) {
	m := ir.NewModule()
	main := ir.NewFunction(m, "main", 0)
	sx := main.Call("x", 0)
	sy := main.Call("y", 0)
	si := main.IndirectCall(0)
	sv := main.Call("v", 0)
	main.Ret()
	for _, name := range []string{"x", "y", "z", "w", "v"} {
		ir.NewFunction(m, name, 0).Ret()
	}
	p := prof.New()
	p.AddDirect(sx, "main", "x", 10)
	p.AddDirect(sy, "main", "y", 100)
	p.AddIndirect(si, "main", "z", 50)
	p.AddIndirect(si, "main", "w", 50)
	p.AddDirect(sv, "main", "v", 50)
	got := strings.Join(postOrder(m, p), " ")
	if want := "y w z v x main"; got != want {
		t.Errorf("postOrder = %q, want %q", got, want)
	}
}

func TestPostOrderHandlesCycles(t *testing.T) {
	m := ir.NewModule()
	a := ir.NewFunction(m, "a", 0)
	a.Call("b", 0)
	a.Ret()
	b := ir.NewFunction(m, "b", 0)
	b.Call("a", 0)
	b.Ret()
	order := postOrder(m, prof.New())
	if len(order) != 2 {
		t.Fatalf("cycle: order = %v", order)
	}
}

func findSite(f *ir.Function, site ir.SiteID) (int, int, bool) {
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			if b.Instrs[ii].Op == ir.OpCall && b.Instrs[ii].Site == site {
				return bi, ii, true
			}
		}
	}
	return 0, 0, false
}
