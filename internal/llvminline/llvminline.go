// Package llvminline reimplements the shape of LLVM's default
// profile-guided inliner, as the baseline PIBE is compared against in
// §8.4 of the paper:
//
//	"The default inliner's bottom-up approach guarantees that it will
//	 visit all call sites in the kernel call-graph. However, its
//	 inlining decisions are made solely based on size complexity and
//	 inline hints. [...] the inlining order is irrespective of profiling
//	 weight, which leads to colder calls inhibiting more beneficial
//	 inlining."
//
// Concretely: functions are visited in post-order (callees before
// callers); within a function, call sites are visited in layout order;
// a site is inlined if the callee's cost is below the hot threshold
// (3000) when the site falls inside the optimization budget, or below
// the cold threshold (225) otherwise; InlineHint raises a cold site to
// the hot threshold. The same per-caller growth cap applies as in PIBE's
// Rule 2 so images stay comparable.
package llvminline

import (
	"fmt"
	"sort"

	"repro/internal/inline"
	"repro/internal/inlinecost"
	"repro/internal/ir"
	"repro/internal/prof"
)

// Thresholds mirroring LLVM's defaults.
const (
	HotThreshold  = 3000
	ColdThreshold = 225
)

// Options configures the baseline inliner.
type Options struct {
	// Budget classifies sites as hot the same way PIBE's Rule 1 does;
	// the visit order, however, ignores it.
	Budget float64
	// ExtraWeights supplies counts for post-profiling sites (promoted
	// calls), as for the PIBE inliner.
	ExtraWeights map[ir.SiteID]uint64
}

// Result summarizes the run.
type Result struct {
	Candidates    int
	Inlined       int
	InlinedWeight uint64
	TotalWeight   uint64
}

// Run applies the baseline policy to the module in place.
func Run(mod *ir.Module, p *prof.Profile, opts Options) (*Result, error) {
	res := &Result{}

	weight := func(in *ir.Instr) uint64 { return inline.SiteWeight(in, p, opts.ExtraWeights) }

	// Classify hotness by budget over the cumulative direct-call count.
	var weights []uint64
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if in.Op == ir.OpCall {
				if w := weight(in); w > 0 {
					weights = append(weights, w)
					res.TotalWeight += w
				}
			}
		})
	}
	res.Candidates = len(weights)
	hotFloor := prof.BudgetFloor(weights, opts.Budget)

	order := postOrder(mod, p)

	added := make(map[string]int64)
	cost := make(map[string]int64)
	costOf := func(f *ir.Function) int64 {
		if c, ok := cost[f.Name]; ok {
			return c
		}
		c := inlinecost.Function(f)
		cost[f.Name] = c
		return c
	}

	ilSeq := 0
	for _, fname := range order {
		f := mod.Func(fname)
		if f == nil || f.Attrs.Has(ir.AttrOptNone) {
			continue
		}
		// Layout-order scan; inlining splices blocks after the current
		// one, so a simple re-scan loop keeps indices valid.
		for {
			bi, ii := -1, -1
			var site *ir.Instr
		scan:
			for b := range f.Blocks {
				for i := range f.Blocks[b].Instrs {
					in := &f.Blocks[b].Instrs[i]
					if in.Op != ir.OpCall || in.Asm {
						continue
					}
					callee := mod.Func(in.Callee)
					if callee == nil || callee == f ||
						callee.Attrs.Has(ir.AttrNoInline) || callee.Attrs.Has(ir.AttrOptNone) {
						continue
					}
					w := weight(in)
					threshold := int64(ColdThreshold)
					if (hotFloor > 0 && w >= hotFloor) || callee.Attrs.Has(ir.AttrInlineHint) {
						threshold = HotThreshold
					}
					cc := costOf(callee)
					if cc > threshold {
						continue
					}
					if added[f.Name]+cc > inlinecost.Rule2Threshold {
						continue
					}
					bi, ii, site = b, i, in
					break scan
				}
			}
			if bi < 0 {
				break
			}
			calleeName := site.Callee
			w := weight(site)
			tag := fmt.Sprintf("llvm%d", ilSeq)
			ilSeq++
			if _, err := inline.Apply(mod, f, bi, ii, tag); err != nil {
				return nil, err
			}
			res.Inlined++
			res.InlinedWeight += w
			cc := cost[calleeName]
			added[f.Name] += cc
			if c, ok := cost[f.Name]; ok {
				cost[f.Name] = c + cc
			}
		}
	}
	return res, nil
}

// postOrder returns the module's functions bottom-up, callees before
// callers: the visit order of LLVM's default inliner. It walks the
// profile-weighted call graph, whose edges are the direct calls and,
// per indirect site, one edge per profiled target. A function's
// out-edges are visited by weight descending, then site, then callee.
// The walk starts from each function in module order, and cycles are
// broken at the first back edge encountered.
func postOrder(mod *ir.Module, p *prof.Profile) []string {
	type edge struct {
		callee string
		site   ir.SiteID
		weight uint64
	}
	out := make(map[string][]edge)
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			switch in.Op {
			case ir.OpCall:
				var w uint64
				if s := p.Sites[in.Orig]; s != nil && !s.Indirect() {
					w = s.Count
				}
				out[f.Name] = append(out[f.Name], edge{in.Callee, in.Site, w})
			case ir.OpICall:
				if s := p.Sites[in.Orig]; s != nil && s.Indirect() {
					for _, t := range s.SortedTargets() {
						out[f.Name] = append(out[f.Name], edge{t.Name, in.Site, t.Count})
					}
				}
			}
		})
	}
	for _, es := range out {
		sort.Slice(es, func(i, j int) bool {
			if es[i].weight != es[j].weight {
				return es[i].weight > es[j].weight
			}
			if es[i].site != es[j].site {
				return es[i].site < es[j].site
			}
			return es[i].callee < es[j].callee
		})
	}

	const (
		white = iota
		gray
		black
	)
	state := make(map[string]int, len(mod.Funcs))
	var order []string
	var visit func(string)
	visit = func(fn string) {
		if state[fn] != white {
			return
		}
		state[fn] = gray
		for _, e := range out[fn] {
			if state[e.callee] == white {
				visit(e.callee)
			}
		}
		state[fn] = black
		order = append(order, fn)
	}
	for _, f := range mod.Funcs {
		visit(f.Name)
	}
	return order
}
