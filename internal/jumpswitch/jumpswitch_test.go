package jumpswitch

import (
	"testing"

	"repro/internal/ir"
)

func TestLearningThenChainHit(t *testing.T) {
	rt := New(DefaultParams())
	site := ir.SiteID(1)
	// Learning phase: every dispatch costs a retpoline, and the last one
	// also pays for patching the chain in.
	for i := 0; i < rt.P.LearnLength; i++ {
		want := rt.P.RetpolineCost
		if i == rt.P.LearnLength-1 {
			want += rt.P.PatchCost
		}
		if got := rt.Handle(site, 7); got != want {
			t.Fatalf("learning dispatch %d cost %d, want %d", i, got, want)
		}
	}
	if rt.LearningHits != int64(rt.P.LearnLength) {
		t.Fatalf("LearningHits = %d, want %d", rt.LearningHits, rt.P.LearnLength)
	}
	if rt.Patches != 1 {
		t.Fatalf("Patches = %d, want 1 after learning completes", rt.Patches)
	}
	// Now in switch mode: a known target is a chain hit and much
	// cheaper than the retpoline.
	cost := rt.Handle(site, 7)
	if rt.ChainHits != 1 {
		t.Fatalf("ChainHits = %d, want 1", rt.ChainHits)
	}
	if cost >= rt.P.RetpolineCost {
		t.Errorf("chain hit cost %d not cheaper than retpoline %d", cost, rt.P.RetpolineCost)
	}
}

func TestUnknownTargetFallsBackToRetpoline(t *testing.T) {
	rt := New(DefaultParams())
	site := ir.SiteID(2)
	for i := 0; i < rt.P.LearnLength; i++ {
		rt.Handle(site, 7)
	}
	cost := rt.Handle(site, 99) // never-seen target
	if rt.ChainMisses != 1 {
		t.Fatalf("ChainMisses = %d, want 1", rt.ChainMisses)
	}
	if cost < rt.P.RetpolineCost {
		t.Errorf("fallback cost %d below retpoline cost %d", cost, rt.P.RetpolineCost)
	}
}

func TestMultiTargetSitePeriodicallyRelearns(t *testing.T) {
	p := DefaultParams()
	p.RelearnPeriod = 64
	p.LearnLength = 8
	rt := New(p)
	site := ir.SiteID(3)
	// Alternate two targets long enough to cross several relearn
	// periods.
	for i := 0; i < 1000; i++ {
		rt.Handle(site, int32(7+i%2))
	}
	if rt.Patches < 2 {
		t.Errorf("Patches = %d, want >= 2 (periodic relearning)", rt.Patches)
	}
	if rt.LearningHits <= int64(p.LearnLength) {
		t.Errorf("LearningHits = %d, want more than one learning episode", rt.LearningHits)
	}
}

func TestSingleTargetSiteStaysInSwitchMode(t *testing.T) {
	p := DefaultParams()
	p.RelearnPeriod = 64
	p.LearnLength = 8
	rt := New(p)
	site := ir.SiteID(4)
	for i := 0; i < 1000; i++ {
		rt.Handle(site, 7)
	}
	if rt.Patches != 1 {
		t.Errorf("Patches = %d, want 1 (single-target sites never relearn)", rt.Patches)
	}
}

func TestMaxTargetsCapped(t *testing.T) {
	p := DefaultParams()
	p.LearnLength = 100
	rt := New(p)
	site := ir.SiteID(5)
	// Learn 10 distinct targets; only MaxTargets survive in the chain.
	for i := 0; i < p.LearnLength; i++ {
		rt.Handle(site, int32(i%10))
	}
	s := rt.sites[site]
	if len(s.installed) != p.MaxTargets {
		t.Errorf("installed = %d targets, want %d", len(s.installed), p.MaxTargets)
	}
}

func TestManagedSites(t *testing.T) {
	rt := New(DefaultParams())
	rt.Handle(1, 1)
	rt.Handle(2, 1)
	rt.Handle(1, 1)
	if rt.ManagedSites() != 2 {
		t.Errorf("ManagedSites = %d, want 2", rt.ManagedSites())
	}
}
