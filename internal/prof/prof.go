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

// SitesSorted returns all site records, hottest first (ties broken by
// site ID for determinism).
func (p *Profile) SitesSorted() []*Site {
	out := make([]*Site, 0, len(p.Sites))
	for _, s := range p.Sites {
		out = append(out, s)
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
