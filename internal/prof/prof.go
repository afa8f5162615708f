// Package prof holds execution profiles: per-call-site execution counts
// and, for indirect call sites, value profiles (target histograms).
//
// This is the moral equivalent of PIBE's profiling pass output: the paper
// instruments every function entry point and call site, maintains a
// counter per dynamic call-graph edge, and lifts the binary-level counts
// back to an LLVM-IR-friendly representation keyed by call site, with
// value-profile metadata of (target name, execution count) tuples for
// indirect sites. Here the interpreter records the same information
// directly against IR site IDs.
package prof

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Site is the profile record for one call site, identified by the site ID
// it had in the profiling build (transforms preserve that identity through
// Instr.Orig).
type Site struct {
	ID     ir.SiteID
	Caller string
	// Callee is the target of a direct site; empty for indirect sites.
	Callee string
	// Count is the site's total execution count.
	Count uint64
	// Targets is the value profile of an indirect site: executions per
	// observed callee. Nil for direct sites.
	Targets map[string]uint64
}

// Indirect reports whether the site is an indirect call site.
func (s *Site) Indirect() bool { return s.Targets != nil }

// SortedTargets returns the value profile as (name, count) pairs sorted by
// count descending, ties broken by name for determinism.
func (s *Site) SortedTargets() []Target {
	ts := make([]Target, 0, len(s.Targets))
	for name, n := range s.Targets {
		ts = append(ts, Target{Name: name, Count: n})
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Count != ts[j].Count {
			return ts[i].Count > ts[j].Count
		}
		return ts[i].Name < ts[j].Name
	})
	return ts
}

// Target is one entry of an indirect site's value profile.
type Target struct {
	Name  string
	Count uint64
}

// Profile aggregates the statistics of one or more profiling runs.
type Profile struct {
	// Sites maps original site ID to its record.
	Sites map[ir.SiteID]*Site
	// Invocations counts how many times each function was entered.
	Invocations map[string]uint64
	// Ops counts the workload operations that produced the profile.
	Ops uint64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		Sites:       make(map[ir.SiteID]*Site),
		Invocations: make(map[string]uint64),
	}
}

// AddDirect records n executions of a direct call site.
func (p *Profile) AddDirect(id ir.SiteID, caller, callee string, n uint64) {
	s := p.Sites[id]
	if s == nil {
		s = &Site{ID: id, Caller: caller, Callee: callee}
		p.Sites[id] = s
	}
	s.Count += n
}

// AddIndirect records n executions of an indirect call site landing on
// target.
func (p *Profile) AddIndirect(id ir.SiteID, caller, target string, n uint64) {
	s := p.Sites[id]
	if s == nil {
		s = &Site{ID: id, Caller: caller, Targets: make(map[string]uint64)}
		p.Sites[id] = s
	}
	if s.Targets == nil {
		s.Targets = make(map[string]uint64)
	}
	s.Count += n
	s.Targets[target] += n
}

// AddInvocation records n entries into fn.
func (p *Profile) AddInvocation(fn string, n uint64) {
	p.Invocations[fn] += n
}

// Clone returns a deep copy of the site, sharing no mutable state with s.
func (s *Site) Clone() *Site {
	ns := *s
	if s.Targets != nil {
		ns.Targets = make(map[string]uint64, len(s.Targets))
		for t, n := range s.Targets {
			ns.Targets[t] = n
		}
	}
	return &ns
}

// Clone returns a deep copy of the profile. The clone shares no mutable
// state with p, so it can be read or merged-into concurrently with
// further mutation of the original.
func (p *Profile) Clone() *Profile {
	np := &Profile{
		Sites:       make(map[ir.SiteID]*Site, len(p.Sites)),
		Invocations: make(map[string]uint64, len(p.Invocations)),
		Ops:         p.Ops,
	}
	for id, s := range p.Sites {
		np.Sites[id] = s.Clone()
	}
	for fn, n := range p.Invocations {
		np.Invocations[fn] = n
	}
	return np
}

// Merge folds other into p. Profiles from repeated runs of the same
// workload are merged this way (the paper aggregates 11 LMBench
// iterations into one profile).
//
// Merge is NOT safe for concurrent use: it mutates p and reads other
// without synchronization, so neither profile may be concurrently
// mutated (and p may not be concurrently read). Callers that aggregate
// profiles from concurrent producers must either serialize their merges
// or go through the synchronized path, internal/fleet's Aggregator.
// Merge is commutative and associative over the merged weights (counts
// are exact uint64 sums), which is what makes sharded aggregation
// order-independent; see the property tests in merge_prop_test.go.
func (p *Profile) Merge(other *Profile) {
	for id, s := range other.Sites {
		if s.Indirect() {
			for t, n := range s.Targets {
				p.AddIndirect(id, s.Caller, t, n)
			}
		} else {
			p.AddDirect(id, s.Caller, s.Callee, s.Count)
		}
	}
	for fn, n := range other.Invocations {
		p.AddInvocation(fn, n)
	}
	p.Ops += other.Ops
}

// DirectWeight returns the cumulative execution count over direct sites.
func (p *Profile) DirectWeight() uint64 {
	var w uint64
	for _, s := range p.Sites {
		if !s.Indirect() {
			w += s.Count
		}
	}
	return w
}

// IndirectWeight returns the cumulative execution count over indirect
// sites.
func (p *Profile) IndirectWeight() uint64 {
	var w uint64
	for _, s := range p.Sites {
		if s.Indirect() {
			w += s.Count
		}
	}
	return w
}

// SitesSorted returns all site records matching the filter, hottest first
// (ties broken by site ID for determinism). A nil filter selects all.
func (p *Profile) SitesSorted(filter func(*Site) bool) []*Site {
	out := make([]*Site, 0, len(p.Sites))
	for _, s := range p.Sites {
		if filter == nil || filter(s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TargetDistribution tallies, per indirect site, the number of distinct
// targets observed — the statistic behind Table 4 of the paper.
// The returned map is keyed by target count; key 7 aggregates ">6".
func (p *Profile) TargetDistribution() map[int]int {
	dist := make(map[int]int)
	for _, s := range p.Sites {
		if !s.Indirect() {
			continue
		}
		n := len(s.Targets)
		if n > 6 {
			n = 7
		}
		dist[n]++
	}
	return dist
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
	type item struct {
		key string
		w   uint64
	}
	var items []item
	for id, s := range p.Sites {
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
	wi := make([]WeightedItem, len(items))
	for i, it := range items {
		wi[i] = WeightedItem{Index: i, Weight: it.w}
	}
	keep := CumulativeBudget(wi, budget, false)
	out := make(map[string]uint64, keep)
	for _, it := range items[:keep] {
		out[it.key] = it.w
	}
	return out
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
	var sim float64
	for k, w := range hl {
		wl := float64(w) / float64(tl)
		wb := float64(hb[k]) / float64(tb)
		if wl < wb {
			sim += wl
		} else {
			sim += wb
		}
	}
	return sim
}

// WeightedItem pairs an arbitrary index with a profile weight, for budget
// selection.
type WeightedItem struct {
	Index  int
	Weight uint64
}

// CumulativeBudget returns how many of the items, pre-sorted hottest
// first, fit within a budget expressed as a fraction of the total weight.
// A budget of 0.99 selects the hottest items that together make up 99% of
// the cumulative execution count, mirroring the paper's optimization
// budgets. The boundary item that crosses the budget line is included,
// since the paper "greedily select[s] all targets that fit in this
// budget" and then keeps attempting the hottest remaining sites; callers
// that want strict exclusion can pass strict=true.
func CumulativeBudget(items []WeightedItem, budget float64, strict bool) int {
	if budget <= 0 || len(items) == 0 {
		return 0
	}
	var total uint64
	for _, it := range items {
		total += it.Weight
	}
	if total == 0 {
		return 0
	}
	if budget >= 1 {
		return len(items)
	}
	limit := budget * float64(total)
	var cum float64
	for i, it := range items {
		cum += float64(it.Weight)
		if cum >= limit {
			if strict && cum > limit {
				return i
			}
			return i + 1
		}
	}
	return len(items)
}
