// Package fleet holds the two building blocks of the profile-freshness
// loop: the Aggregator, a sharded, lock-striped merge of profile deltas
// with per-barrier exponential decay, and the Promoter, the canary-gated
// pipeline that rebuilds an image when the live hot set drifts away from
// the profile the image was built from and promotes the rebuild only
// after differential validation, a canary window and its latency and
// fault-kind gates.
//
// The paper computes its optimization budgets over one offline,
// "representative" profile; in production the workload mix drifts and a
// stale profile silently erodes the ICP/inlining win (the §8.4
// mismatched-profile effect). The loop that closes this gap is
// internal/ingest: each tenant's deltas merge into an Aggregator, every
// round barrier measures drift and steps the tenant's Promoter, and the
// checkpoint carries both. `pibe fleet` (pibe.Fleet) is that loop with
// one tenant whose deltas come from real workload runs.
package fleet

import (
	"hash/fnv"
	"sync"

	"repro/internal/prof"
)

// Aggregator is the synchronized merge path for profiles produced by
// concurrent collectors. It is sharded and lock-striped: sites are
// partitioned across shards by site ID (function invocations by name
// hash), each shard guarded by its own mutex, so concurrent Add calls
// touching disjoint shards never contend. Counts are exact uint64 sums —
// merging is commutative and associative (see prof.Merge's contract) —
// so the aggregate is independent of the order in which concurrent
// deltas arrive, which is what makes fleet runs deterministic and
// replayable.
//
// Staleness is handled with epoch-based exponential decay: Decay scales
// every count by the decay factor, so a site that stops being exercised
// loses half its weight per epoch (at the default 0.5) and eventually
// drops out of the aggregate entirely. The live aggregate is therefore
// an exponentially-weighted moving profile of the fleet's recent
// workload mix, not an all-time sum.
type Aggregator struct {
	decay  float64
	shards []aggShard
}

type aggShard struct {
	mu sync.Mutex
	p  *prof.Profile
	// merges counts the Add calls that touched this stripe (not the
	// sites they carried): the per-shard load statistic behind
	// ShardStats, shared by fleet drift reports and ingest metrics.
	merges uint64
}

// NewAggregator returns an aggregator with the given number of stripes.
// decay is the per-epoch count multiplier in (0, 1]; 1 disables decay.
func NewAggregator(shards int, decay float64) *Aggregator {
	if shards <= 0 {
		shards = 1
	}
	if decay <= 0 || decay > 1 {
		decay = 1
	}
	a := &Aggregator{decay: decay, shards: make([]aggShard, shards)}
	for i := range a.shards {
		a.shards[i].p = prof.New()
	}
	return a
}

// Shards returns the stripe count.
func (a *Aggregator) Shards() int { return len(a.shards) }

func shardOfFn(fn string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(fn))
	return int(h.Sum32() % uint32(n))
}

// Add folds one collector delta into the aggregate. It is safe for
// concurrent use: the delta is partitioned per shard lock-free first,
// then each stripe is locked exactly once. The delta itself is only
// read, never retained, so the caller may reuse or discard it.
func (a *Aggregator) Add(delta *prof.Profile) {
	if delta == nil {
		return
	}
	n := len(a.shards)
	sites := make([][]*prof.Site, n)
	for id, s := range delta.Sites {
		si := int(uint32(id)) % n
		sites[si] = append(sites[si], s)
	}
	fns := make([][]string, n)
	for fn := range delta.Invocations {
		si := shardOfFn(fn, n)
		fns[si] = append(fns[si], fn)
	}
	for si := 0; si < n; si++ {
		if len(sites[si]) == 0 && len(fns[si]) == 0 && !(si == 0 && delta.Ops > 0) {
			continue
		}
		sh := &a.shards[si]
		sh.mu.Lock()
		for _, s := range sites[si] {
			if s.Indirect() {
				for t, c := range s.Targets {
					sh.p.AddIndirect(s.ID, s.Caller, t, c)
				}
			} else {
				sh.p.AddDirect(s.ID, s.Caller, s.Callee, s.Count)
			}
		}
		for _, fn := range fns[si] {
			sh.p.AddInvocation(fn, delta.Invocations[fn])
		}
		if si == 0 {
			// Ops is a scalar, not sharded; stripe 0 owns it.
			sh.p.Ops += delta.Ops
		}
		sh.merges++
		sh.mu.Unlock()
	}
}

// scale decays one count, truncating toward zero so repeated decay
// drives stale counts extinct instead of letting them oscillate at 1.
func scale(c uint64, d float64) uint64 {
	return uint64(float64(c) * d)
}

// Decay applies one epoch of exponential decay: every count is scaled
// by the decay factor and entries that reach zero are dropped, so
// stale sites age out of the aggregate instead of pinning hot-set
// selection to a workload the fleet no longer runs. Indirect site
// header counts are recomputed as the sum of their decayed targets,
// preserving the serialization invariant the strict profile reader
// checks (header == Σ targets).
func (a *Aggregator) Decay() {
	if a.decay >= 1 {
		return
	}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		decayProfile(sh.p, a.decay)
		sh.mu.Unlock()
	}
}

func decayProfile(p *prof.Profile, d float64) {
	for id, s := range p.Sites {
		if s.Indirect() {
			var sum uint64
			for t, c := range s.Targets {
				nc := scale(c, d)
				if nc == 0 {
					delete(s.Targets, t)
				} else {
					s.Targets[t] = nc
					sum += nc
				}
			}
			s.Count = sum
			if len(s.Targets) == 0 {
				delete(p.Sites, id)
			}
		} else {
			s.Count = scale(s.Count, d)
			if s.Count == 0 {
				delete(p.Sites, id)
			}
		}
	}
	for fn, c := range p.Invocations {
		nc := scale(c, d)
		if nc == 0 {
			delete(p.Invocations, fn)
		} else {
			p.Invocations[fn] = nc
		}
	}
	p.Ops = scale(p.Ops, d)
}

// Snapshot returns a copy of the current aggregate as one merged
// profile. Each stripe is locked only while its shard is copied out, so
// a snapshot never blocks writers on the other stripes; the returned
// profile shares no state with the aggregator and is safe to serialize,
// merge or build against while collection continues.
func (a *Aggregator) Snapshot() *prof.Profile {
	out := prof.New()
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		out.Merge(sh.p)
		sh.mu.Unlock()
	}
	return out
}

// ShardStat describes one stripe of the aggregator: its current site
// occupancy and how many Add calls have touched it. Occupancy shows
// whether the hash partitioning is balanced; the merge counter shows
// whether the *load* is — a stripe can be small but hot. Fleet drift
// reports and the ingest service's observability surface both read
// these, so stripe imbalance is diagnosed the same way everywhere.
type ShardStat struct {
	// Sites is the stripe's current distinct-site count.
	Sites int
	// Merges counts Add calls that touched the stripe since creation
	// (restores via Add count too; Decay and Snapshot do not).
	Merges uint64
}

// ShardStats returns one ShardStat per stripe, in stripe order. Each
// stripe is locked only while it is read, so the stats are a consistent
// per-stripe (not cross-stripe) view that never blocks writers on the
// other stripes.
func (a *Aggregator) ShardStats() []ShardStat {
	out := make([]ShardStat, len(a.shards))
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		out[i] = ShardStat{Sites: len(sh.p.Sites), Merges: sh.merges}
		sh.mu.Unlock()
	}
	return out
}

// SiteCount returns the number of distinct sites currently aggregated.
func (a *Aggregator) SiteCount() int {
	var n int
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += len(sh.p.Sites)
		sh.mu.Unlock()
	}
	return n
}
