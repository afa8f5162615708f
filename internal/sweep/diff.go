package sweep

// Surface diffing: `pibe sweep-diff A.json B.json` compares two
// BENCH_sweep.json overhead surfaces — a before/after pair across a
// code change, a seed bump, or a kernel-scale change — and reports
// per-cell overhead deltas plus knee migration per combo. The paper's
// result is a curve, so a regression shows up as a region of the
// surface drifting, not as a single number; the diff makes that drift
// visible cell by cell.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
)

// CellDelta is one grid point's before/after comparison.
type CellDelta struct {
	Combo        string
	ICPBudget    float64
	InlineBudget float64
	// A and B are the geomean overheads on each side; Delta is B-A (in
	// overhead fraction, so 0.01 is one percentage point).
	A, B, Delta float64
	// OnlyIn is "a" or "b" when the cell exists on one side only
	// (different grids or combos); empty when both sides have it.
	OnlyIn string
	// AFailed/BFailed mark failure records; a failed side has no
	// meaningful overhead and the delta is not computed.
	AFailed, BFailed bool
}

// KneeMove is one combo's knee migration between the two surfaces.
type KneeMove struct {
	Combo string
	// A and B are the knees on each side; nil when that side found none
	// (combo absent, or every cell failed).
	A, B *Knee
	// Moved reports whether the knee budgets differ (not merely the
	// overhead at an unchanged knee).
	Moved bool
}

// DiffReport is the structured comparison of two sweep reports.
type DiffReport struct {
	Cells []CellDelta
	Knees []KneeMove
	// MaxAbsDelta is the largest |Delta| across comparable cells — the
	// one-number answer to "did the surface move".
	MaxAbsDelta float64
}

// Diff compares two sweep reports cell by cell. Cells are matched on
// (combo, icp budget, inline budget) and emitted in B's grid order with
// A-only cells appended per combo, so the output is deterministic in
// the inputs.
func Diff(a, b *Report) *DiffReport {
	type key struct {
		combo    string
		icp, inl float64
	}
	ak := make(map[key]Cell, len(a.Cells))
	for _, c := range a.Cells {
		ak[key{c.Combo, c.ICPBudget, c.InlineBudget}] = c
	}
	bk := make(map[key]Cell, len(b.Cells))
	for _, c := range b.Cells {
		bk[key{c.Combo, c.ICPBudget, c.InlineBudget}] = c
	}
	d := &DiffReport{}
	seen := make(map[key]bool, len(b.Cells))
	for _, bc := range b.Cells {
		k := key{bc.Combo, bc.ICPBudget, bc.InlineBudget}
		seen[k] = true
		cd := CellDelta{
			Combo:        bc.Combo,
			ICPBudget:    bc.ICPBudget,
			InlineBudget: bc.InlineBudget,
			B:            bc.Geomean,
			BFailed:      bc.Failed,
		}
		ac, ok := ak[k]
		if !ok {
			cd.OnlyIn = "b"
		} else {
			cd.A, cd.AFailed = ac.Geomean, ac.Failed
			if !ac.Failed && !bc.Failed {
				cd.Delta = bc.Geomean - ac.Geomean
				if abs := math.Abs(cd.Delta); abs > d.MaxAbsDelta {
					d.MaxAbsDelta = abs
				}
			}
		}
		d.Cells = append(d.Cells, cd)
	}
	for _, ac := range a.Cells {
		k := key{ac.Combo, ac.ICPBudget, ac.InlineBudget}
		if seen[k] {
			continue
		}
		d.Cells = append(d.Cells, CellDelta{
			Combo:        ac.Combo,
			ICPBudget:    ac.ICPBudget,
			InlineBudget: ac.InlineBudget,
			A:            ac.Geomean,
			AFailed:      ac.Failed,
			OnlyIn:       "a",
		})
	}
	combos := b.Combos
	for _, c := range a.Combos {
		found := false
		for _, o := range combos {
			if o == c {
				found = true
				break
			}
		}
		if !found {
			combos = append(combos, c)
		}
	}
	kneeOf := func(r *Report, combo string) *Knee {
		for i := range r.Knees {
			if r.Knees[i].Combo == combo {
				k := r.Knees[i]
				return &k
			}
		}
		return nil
	}
	for _, combo := range combos {
		ka, kb := kneeOf(a, combo), kneeOf(b, combo)
		moved := (ka == nil) != (kb == nil) ||
			(ka != nil && kb != nil &&
				(ka.ICPBudget != kb.ICPBudget || ka.InlineBudget != kb.InlineBudget))
		d.Knees = append(d.Knees, KneeMove{Combo: combo, A: ka, B: kb, Moved: moved})
	}
	return d
}

// Tables renders the diff as one delta matrix per combo (B minus A, in
// percentage points) with knee-migration and coverage notes.
func (d *DiffReport) Tables(a, b *Report) []*bench.Table {
	// Render on the union grid so cells present on only one side still
	// get a column/row.
	union := func(x, y []float64) []float64 {
		out := append([]float64(nil), x...)
		for _, v := range y {
			found := false
			for _, u := range out {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				out = append(out, v)
			}
		}
		return out
	}
	icps := union(b.ICPGrid, a.ICPGrid)
	inls := union(b.InlineGrid, a.InlineGrid)
	idx := make(map[string]CellDelta, len(d.Cells))
	var combos []string
	for _, c := range d.Cells {
		k := fmt.Sprintf("%s/%g/%g", c.Combo, c.ICPBudget, c.InlineBudget)
		idx[k] = c
		found := false
		for _, o := range combos {
			if o == c.Combo {
				found = true
				break
			}
		}
		if !found {
			combos = append(combos, c.Combo)
		}
	}
	kneeOf := make(map[string]KneeMove, len(d.Knees))
	for _, k := range d.Knees {
		kneeOf[k.Combo] = k
	}
	var out []*bench.Table
	for _, combo := range combos {
		t := &bench.Table{
			ID:     "sweep-diff-" + combo,
			Title:  fmt.Sprintf("Sweep diff, %s defenses: geomean overhead delta B-A in pp (icp ↓ × inline →)", combo),
			Header: []string{"icp \\ inline"},
		}
		for _, inl := range inls {
			t.Header = append(t.Header, bench.BudgetLabel(inl))
		}
		for _, icp := range icps {
			row := []string{bench.BudgetLabel(icp)}
			for _, inl := range inls {
				c, ok := idx[fmt.Sprintf("%s/%g/%g", combo, icp, inl)]
				switch {
				case !ok:
					row = append(row, "n/a")
				case c.AFailed || c.BFailed:
					var sides []string
					if c.AFailed {
						sides = append(sides, "A")
					}
					if c.BFailed {
						sides = append(sides, "B")
					}
					row = append(row, "FAIL:"+strings.Join(sides, ""))
				case c.OnlyIn == "a":
					row = append(row, "A-only")
				case c.OnlyIn == "b":
					row = append(row, "B-only")
				default:
					row = append(row, fmt.Sprintf("%+.2fpp", 100*c.Delta))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		if km, ok := kneeOf[combo]; ok {
			switch {
			case km.A == nil && km.B == nil:
				t.Notes = append(t.Notes, "knee: absent on both sides")
			case km.A == nil:
				t.Notes = append(t.Notes, fmt.Sprintf("knee: appeared at icp %s × inline %s (%+.1f%%)",
					bench.BudgetLabel(km.B.ICPBudget), bench.BudgetLabel(km.B.InlineBudget), 100*km.B.Geomean))
			case km.B == nil:
				t.Notes = append(t.Notes, fmt.Sprintf("knee: disappeared (was icp %s × inline %s at %+.1f%%)",
					bench.BudgetLabel(km.A.ICPBudget), bench.BudgetLabel(km.A.InlineBudget), 100*km.A.Geomean))
			case km.Moved:
				t.Notes = append(t.Notes, fmt.Sprintf("knee MOVED: icp %s × inline %s (%+.1f%%) -> icp %s × inline %s (%+.1f%%)",
					bench.BudgetLabel(km.A.ICPBudget), bench.BudgetLabel(km.A.InlineBudget), 100*km.A.Geomean,
					bench.BudgetLabel(km.B.ICPBudget), bench.BudgetLabel(km.B.InlineBudget), 100*km.B.Geomean))
			default:
				t.Notes = append(t.Notes, fmt.Sprintf("knee unchanged at icp %s × inline %s (%+.1f%% -> %+.1f%%)",
					bench.BudgetLabel(km.A.ICPBudget), bench.BudgetLabel(km.A.InlineBudget), 100*km.A.Geomean, 100*km.B.Geomean))
			}
		}
		out = append(out, t)
	}
	return out
}
