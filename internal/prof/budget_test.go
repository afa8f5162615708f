package prof

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBudgetCut(t *testing.T) {
	weights := []uint64{500, 300, 150, 49, 1}
	for _, c := range []struct {
		budget float64
		want   int
	}{
		{0, 0},
		{0.5, 1},
		{0.79, 2},
		{0.80, 2},
		{0.81, 3},
		{0.99, 4},
		{0.999, 4},
		{1.0, 5},
	} {
		if got := BudgetCut(weights, c.budget); got != c.want {
			t.Errorf("BudgetCut(%.3f) = %d, want %d", c.budget, got, c.want)
		}
	}
	if got := BudgetCut([]uint64{0, 0}, 0.5); got != 0 {
		t.Errorf("BudgetCut over zero weights = %d, want 0", got)
	}
}

func TestBudgetFloor(t *testing.T) {
	for _, c := range []struct {
		budget float64
		want   uint64
	}{
		{0, 0},
		{0.5, 500},
		{0.81, 150},
		{0.999, 49},
		{1, 1},
	} {
		weights := []uint64{49, 500, 1, 150, 300}
		if got := BudgetFloor(weights, c.budget); got != c.want {
			t.Errorf("BudgetFloor(%.3f) = %d, want %d", c.budget, got, c.want)
		}
	}
}

// Property: raising the budget never selects fewer items, and the
// selection is always within bounds.
func TestBudgetCutMonotoneQuick(t *testing.T) {
	f := func(seed int64, b1, b2 float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		weights := make([]uint64, n)
		for i := range weights {
			weights[i] = uint64(rng.Intn(1000))
		}
		slices.SortFunc(weights, func(a, b uint64) int { return cmp.Compare(b, a) })
		clamp := func(x float64) float64 {
			if x < 0 {
				x = -x
			}
			return x - float64(int(x)) // fractional part in [0,1)
		}
		lo, hi := clamp(b1), clamp(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		nlo := BudgetCut(weights, lo)
		nhi := BudgetCut(weights, hi)
		return nlo <= nhi && nhi <= n && nlo >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateOverlap(t *testing.T) {
	a := New()
	a.AddDirect(1, "f", "x", 900)
	a.AddDirect(2, "f", "y", 100)
	a.AddIndirect(3, "f", "t1", 600)
	a.AddIndirect(3, "f", "t2", 400)
	b := New()
	b.AddDirect(1, "f", "x", 50)
	b.AddDirect(4, "g", "z", 950)
	b.AddIndirect(3, "f", "t1", 10)
	b.AddIndirect(3, "f", "t3", 990)
	for _, c := range []struct {
		a, b     *Profile
		budget   float64
		indirect bool
		want     float64
	}{
		{a, b, 0.99, false, 0.9}, // site 1 is hot in both
		{a, b, 0.5, false, 0},    // b's hot half is site 4 alone
		{a, b, 0.99, true, 0},    // b's crossing pair covers 99% alone
		{a, b, 1, true, 0.6},     // a's t1 is in b's full set
		{a, a, 0.99, true, 1},
		{New(), a, 0.99, false, 0},
	} {
		if got := CandidateOverlap(c.a, c.b, c.budget, c.indirect); got != c.want {
			t.Errorf("CandidateOverlap(budget %g, indirect %v) = %v, want %v", c.budget, c.indirect, got, c.want)
		}
	}
}
