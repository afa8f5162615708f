package prof

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// BudgetCut is PIBE's Rule 1, the one optimization-budget selection
// every pass makes: given weights sorted hottest first, it returns how
// many of them an optimization budget, a fraction of their cumulative
// weight, selects. A budget of 0.99 selects the hottest items that
// together make up 99% of the cumulative execution count. The item that
// crosses the budget line is included, since the paper "greedily
// select[s] all targets that fit in this budget" and then keeps
// attempting the hottest remaining sites.
func BudgetCut(weights []uint64, budget float64) int {
	if budget <= 0 || len(weights) == 0 {
		return 0
	}
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	if budget >= 1 {
		return len(weights)
	}
	limit := budget * float64(total)
	var cum float64
	for i, w := range weights {
		cum += float64(w)
		if cum >= limit {
			return i + 1
		}
	}
	return len(weights)
}

// BudgetFloor returns the weight of the coldest item BudgetCut selects
// from weights, which it sorts in place hottest first. An inliner
// processes every site at least that hot, inherited sites included. It
// is 0 when nothing is selected, and 1 when budget ≥ 1, so that a full
// budget admits every site with any weight.
func BudgetFloor(weights []uint64, budget float64) uint64 {
	if budget >= 1 {
		return 1
	}
	slices.SortFunc(weights, func(a, b uint64) int { return cmp.Compare(b, a) })
	n := BudgetCut(weights, budget)
	if n == 0 {
		return 0
	}
	return weights[n-1]
}

// hotSet returns the budget-selected items of the sites keep accepts,
// keyed as HotSet keys them.
func (p *Profile) hotSet(budget float64, keep func(*Site) bool) map[string]uint64 {
	type item struct {
		key string
		w   uint64
	}
	var items []item
	for id, s := range p.Sites {
		if !keep(s) {
			continue
		}
		if s.Indirect() {
			for _, t := range s.SortedTargets() {
				items = append(items, item{fmt.Sprintf("i:%d:%s", id, t.Name), t.Count})
			}
		} else {
			items = append(items, item{fmt.Sprintf("d:%d", id), s.Count})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].w != items[j].w {
			return items[i].w > items[j].w
		}
		return items[i].key < items[j].key
	})
	weights := make([]uint64, len(items))
	for i, it := range items {
		weights[i] = it.w
	}
	n := BudgetCut(weights, budget)
	out := make(map[string]uint64, n)
	for _, it := range items[:n] {
		out[it.key] = it.w
	}
	return out
}

// HotSet returns the budget-selected hot item set of the profile: the
// hottest items that together cover the given fraction of the profile's
// cumulative weight, keyed so that workload drift is visible at the
// granularity the optimizers care about. Direct sites are keyed
// "d:<id>" (inlining candidates), indirect (site, target) pairs are
// keyed "i:<id>:<target>" (promotion candidates) — so an application
// mix that rotates which target is hot at a multi-target site changes
// the hot set even though the site itself stays hot. Selection is
// deterministic: items sort by weight descending, key ascending.
func (p *Profile) HotSet(budget float64) map[string]uint64 {
	return p.hotSet(budget, func(*Site) bool { return true })
}

// HotOverlap is the drift statistic of the profile-ingestion loop: the
// histogram intersection of the two profiles' budget-selected hot sets,
// Σ min(ŵ_live, ŵ_base) over hot items, where ŵ is an item's weight
// normalized by its profile's total hot weight. It is 1 exactly when
// the hot distributions agree and decays toward 0 as weight moves to
// different items — or merely redistributes across the same items,
// which is the drift that silently erodes PIBE's wins: a promotion
// chain ordered by stale counts puts the now-hot target deep in the
// chain even though the target was "covered" (the §8.4 mismatched-
// profile effect, measured continuously). Bare set membership misses
// that; weight-mass agreement does not.
//
// Empty-set semantics: two empty hot sets agree vacuously — there is no
// weight anywhere to have moved — so empty-vs-empty is 1.0 (no drift).
// An empty set against a non-empty one is total disagreement, 0. The
// distinction matters to the fleet service: a freshly started fleet
// whose baseline and live aggregate are both still empty must not read
// as maximal drift and spuriously trigger a rebuild.
func HotOverlap(live, base *Profile, budget float64) float64 {
	hl, hb := live.HotSet(budget), base.HotSet(budget)
	var tl, tb uint64
	for _, w := range hl {
		tl += w
	}
	for _, w := range hb {
		tb += w
	}
	if tl == 0 && tb == 0 {
		return 1
	}
	if tl == 0 || tb == 0 {
		return 0
	}
	// Each item adds the smaller of its two shares. Summing the chosen
	// weights as integers per side and dividing once makes the result
	// independent of map order, and exactly 1 when the distributions
	// agree.
	var ml, mb uint64
	for k, wl := range hl {
		wb := hb[k]
		if float64(wl)/float64(tl) <= float64(wb)/float64(tb) {
			ml += wl
		} else {
			mb += wb
		}
	}
	return float64(ml)/float64(tl) + float64(mb)/float64(tb)
}

// CandidateOverlap is the §8.4 workload-robustness statistic: the share
// of a's hot candidate weight at the given budget that is also hot in
// b. It selects one kind of candidate, indirect (site, target) pairs
// for promotion or direct sites for inlining, by HotSet's rule.
func CandidateOverlap(a, b *Profile, budget float64, indirect bool) float64 {
	kind := func(s *Site) bool { return s.Indirect() == indirect }
	sa, sb := a.hotSet(budget, kind), b.hotSet(budget, kind)
	var total, shared uint64
	for k, w := range sa {
		total += w
		if _, ok := sb[k]; ok {
			shared += w
		}
	}
	if total == 0 {
		return 0
	}
	return float64(shared) / float64(total)
}
