// Package icp implements PIBE's indirect call promotion (§5.3): using the
// value profile of an indirect call site, the hottest targets are
// rewritten into a chain of compare-and-direct-call tests with the
// original indirect call left as the fallback.
//
// Two properties distinguish PIBE's algorithm from classic ICP:
//
//   - promotion candidates are (site, target) pairs selected globally,
//     hottest first, under an optimization budget over the cumulative
//     indirect-branch execution count; and
//   - the number of promoted targets per site is unbounded, because a
//     compare (~2 cycles) is far cheaper than the retpoline (~21 cycles)
//     the fallback must execute under hardening.
package icp

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/prof"
)

// Options configures promotion.
type Options struct {
	// Budget is the fraction of cumulative indirect-call execution count
	// to promote, e.g. 0.99999 for the paper's "99.999%".
	Budget float64
	// MaxTargetsPerSite caps promoted targets per call site; zero means
	// unbounded (PIBE's choice). Classic top-N promotion is the capped
	// ablation.
	MaxTargetsPerSite int
}

// Result reports what was promoted, in the units of Tables 8 and 10.
type Result struct {
	// CandidateSites counts profiled indirect call sites (sites with a
	// value profile that exist in the module).
	CandidateSites int
	// CandidateTargets counts (site, target) pairs.
	CandidateTargets int
	// TotalWeight is the cumulative execution count over all candidate
	// pairs.
	TotalWeight uint64
	// PromotedSites counts sites that received at least one promotion;
	// PromotedTargets the total promoted pairs; PromotedWeight their
	// cumulative count.
	PromotedSites   int
	PromotedTargets int
	PromotedWeight  uint64
	// NewSiteWeights maps each created direct-call site to the profile
	// weight of the promoted target, for consumption by the inliner.
	NewSiteWeights map[ir.SiteID]uint64
}

type pair struct {
	site   ir.SiteID // original site ID
	target string
	weight uint64
}

// Run promotes indirect call sites in the module in place.
func Run(mod *ir.Module, p *prof.Profile, opts Options) (*Result, error) {
	res := &Result{NewSiteWeights: make(map[ir.SiteID]uint64)}

	// Index the module's live indirect call sites by original ID.
	type loc struct {
		f *ir.Function
	}
	sites := make(map[ir.SiteID]loc)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpICall {
					sites[in.Site] = loc{f: f}
				}
			}
		}
	}

	// Gather candidate pairs. A profiled site may have been duplicated
	// by inlining; ICP runs before inlining in the pipeline, so here a
	// profile site maps to exactly the module site with the same ID.
	var pairs []pair
	for id, s := range p.Sites {
		if !s.Indirect() {
			continue
		}
		if _, live := sites[id]; !live {
			continue
		}
		res.CandidateSites++
		for _, t := range s.SortedTargets() {
			if mod.Func(t.Name) == nil {
				return nil, fmt.Errorf("icp: profile target %q of site %d not in module", t.Name, id)
			}
			pairs = append(pairs, pair{site: id, target: t.Name, weight: t.Count})
			res.TotalWeight += t.Count
		}
	}
	res.CandidateTargets = len(pairs)
	if len(pairs) == 0 || opts.Budget <= 0 {
		return res, nil
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].weight != pairs[j].weight {
			return pairs[i].weight > pairs[j].weight
		}
		if pairs[i].site != pairs[j].site {
			return pairs[i].site < pairs[j].site
		}
		return pairs[i].target < pairs[j].target
	})

	weights := make([]uint64, len(pairs))
	for i, pr := range pairs {
		weights[i] = pr.weight
	}

	// Group the selected pairs per site, preserving hotness order.
	perSite := make(map[ir.SiteID][]pair)
	for _, pr := range pairs[:prof.BudgetCut(weights, opts.Budget)] {
		if opts.MaxTargetsPerSite > 0 && len(perSite[pr.site]) >= opts.MaxTargetsPerSite {
			continue
		}
		perSite[pr.site] = append(perSite[pr.site], pr)
	}

	// Deterministic site order.
	ids := make([]ir.SiteID, 0, len(perSite))
	for id := range perSite {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		sel := perSite[id]
		f := sites[id].f
		if err := promoteSite(mod, f, id, sel, res); err != nil {
			return nil, err
		}
		res.PromotedSites++
	}
	return res, nil
}

// promoteSite rewrites the indirect call with the given site ID in f into
// a compare chain over the selected targets with the original icall as
// fallback:
//
//	cmpfn reg, @t1 ; br flag, d1, c2
//	d1: call @t1 ; jmp cont
//	c2: cmpfn reg, @t2 ; br flag, d2, fb
//	d2: call @t2 ; jmp cont
//	fb: icall reg ; jmp cont
//	cont: <rest of the original block>
func promoteSite(mod *ir.Module, f *ir.Function, id ir.SiteID, sel []pair, res *Result) error {
	bi, ii := -1, -1
	for b := range f.Blocks {
		for i := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[i]
			if in.Op == ir.OpICall && in.Site == id {
				bi, ii = b, i
			}
		}
	}
	if bi < 0 {
		return fmt.Errorf("icp: site %d vanished from %s", id, f.Name)
	}
	b := f.Blocks[bi]
	icall := b.Instrs[ii]

	prefix := fmt.Sprintf("icp%d.", id)
	contName := prefix + "cont"
	cont := &ir.Block{Name: contName, Instrs: append([]ir.Instr(nil), b.Instrs[ii+1:]...)}

	var chain []*ir.Block
	head := b.Instrs[:ii:ii]
	emitCheck := func(into *[]ir.Instr, k int, pr pair) {
		dName := fmt.Sprintf("%sd%d", prefix, k)
		var next string
		if k+1 < len(sel) {
			next = fmt.Sprintf("%sc%d", prefix, k+1)
		} else {
			next = prefix + "fb"
		}
		*into = append(*into,
			ir.Instr{Op: ir.OpCmpFn, Reg: icall.Reg, Callee: pr.target},
			ir.Instr{Op: ir.OpBr, Then: dName, Else: next, UseFlag: true},
		)
		site := mod.NewSite()
		chain = append(chain, &ir.Block{Name: dName, Instrs: []ir.Instr{
			{Op: ir.OpCall, Callee: pr.target, Args: icall.Args, Site: site, Orig: site},
			{Op: ir.OpJmp, Then: contName},
		}})
		res.NewSiteWeights[site] = pr.weight
		res.PromotedTargets++
		res.PromotedWeight += pr.weight
	}

	emitCheck(&head, 0, sel[0])
	b.Instrs = head
	for k := 1; k < len(sel); k++ {
		cb := &ir.Block{Name: fmt.Sprintf("%sc%d", prefix, k)}
		emitCheck(&cb.Instrs, k, sel[k])
		chain = append(chain, cb)
	}
	// Fallback keeps the original icall (same site ID, so the resolver
	// and any later hardening still recognize it).
	fb := &ir.Block{Name: prefix + "fb", Instrs: []ir.Instr{
		icall,
		{Op: ir.OpJmp, Then: contName},
	}}

	// Order: compare blocks were appended to chain interleaved with
	// direct-call blocks; assemble final layout.
	blocks := make([]*ir.Block, 0, len(f.Blocks)+len(chain)+2)
	blocks = append(blocks, f.Blocks[:bi+1]...)
	blocks = append(blocks, chain...)
	blocks = append(blocks, fb, cont)
	blocks = append(blocks, f.Blocks[bi+1:]...)
	f.Blocks = blocks
	f.InvalidateIndex()
	return nil
}
