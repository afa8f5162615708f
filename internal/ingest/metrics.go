package ingest

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
)

// metrics is the service's observability surface: lock-free counters
// plus a fixed-size log-bucketed latency histogram, so a run ingesting
// millions of deltas observes itself in O(1) memory.
//
// Counters split into two classes. The deterministic class (deltas,
// batches, overloads, shed, evictions, resurrections) is persisted in
// the checkpoint and survives resume: prev holds the restored values,
// the atomics count this process, totals are the sum. The per-process
// class (queue high-water, merge latency) describes this process's
// scheduling and is deliberately not persisted.
type metrics struct {
	deltas        atomic.Uint64
	batches       atomic.Uint64
	overloads     atomic.Uint64
	shedDeltas    atomic.Uint64
	evictions     atomic.Uint64
	resurrections atomic.Uint64

	// Fault-isolation counters (see health.go): poison deltas rejected
	// by sanitation, deltas dropped while their tenant was
	// quarantined, deltas refused by per-tenant admission control,
	// breaker trips and heals across all tenants, and per-tenant
	// promotion outcomes. All deterministic and persisted.
	poisonRejects atomic.Uint64
	quarantined   atomic.Uint64
	throttled     atomic.Uint64
	trips         atomic.Uint64
	heals         atomic.Uint64
	promotions    atomic.Uint64
	promoRejects  atomic.Uint64
	promoFailures atomic.Uint64
	// faults counts collector faults reported through ReportFault; they
	// never feed a breaker. Deterministic and persisted.
	faults atomic.Uint64

	// closedRejects counts Submit/enqueue refusals after Close — a
	// property of this process's shutdown, deliberately not persisted.
	closedRejects atomic.Uint64

	// prev carries the counters restored from a checkpoint.
	prev struct {
		deltas, batches, overloads, shedDeltas, evictions, resurrections uint64

		poisonRejects, quarantined, throttled   uint64
		trips, heals                            uint64
		promotions, promoRejects, promoFailures uint64
		faults                                  uint64
	}

	queueHighWater atomic.Int64
	merge          latencyHist
}

func (m *metrics) noteQueueDepth(depth int) {
	for {
		cur := m.queueHighWater.Load()
		if int64(depth) <= cur || m.queueHighWater.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

func (m *metrics) noteMerge(d time.Duration) { m.merge.observe(d) }

// latencyHist is a power-of-2^(1/4) bucketed duration histogram: each
// nanosecond value lands in the bucket indexed by its floor log2 times
// 4 plus the next two mantissa bits, giving ~19% relative resolution
// over the full int64 range in a fixed 256-counter array.
const nLatBuckets = 256

type latencyHist struct {
	buckets [nLatBuckets]atomic.Uint64
	count   atomic.Uint64
}

func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	b := bits.Len64(v) - 1 // floor log2
	frac := 0
	if b >= 2 {
		frac = int((v >> (uint(b) - 2)) & 3)
	}
	i := b*4 + frac
	if i >= nLatBuckets {
		i = nLatBuckets - 1
	}
	return i
}

// bucketLow returns the lower bound of bucket i in nanoseconds — the
// conservative representative quantile() reports.
func bucketLow(i int) int64 {
	b, frac := i/4, i%4
	if b < 2 {
		return int64(1) << uint(b)
	}
	return int64((4 + uint64(frac)) << (uint(b) - 2))
}

func (h *latencyHist) observe(d time.Duration) {
	h.buckets[bucketOf(d.Nanoseconds())].Add(1)
	h.count.Add(1)
}

// quantile returns the q-quantile (0 < q <= 1) as the lower bound of
// the bucket containing it, or 0 when nothing was observed.
func (h *latencyHist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			return time.Duration(bucketLow(i))
		}
	}
	return time.Duration(bucketLow(nLatBuckets - 1))
}

// max returns the lower bound of the highest occupied bucket.
func (h *latencyHist) max() time.Duration {
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			return time.Duration(bucketLow(i))
		}
	}
	return 0
}

// TenantStat is one tenant's slice of a Stats snapshot.
type TenantStat struct {
	ID string
	// Deltas is the tenant's all-time submitted delta count.
	Deltas uint64
	// Sites is the tenant aggregate's current distinct-site count.
	Sites int
	// LastActive is the most recent round the tenant submitted in.
	LastActive int
	// Drift is the latest HotOverlap of the tenant's aggregate against
	// its baseline (1 = no drift; 0 before the first EndRound).
	Drift float64
	// Health is the tenant's isolation state ("healthy", "degraded",
	// "quarantined", "probation").
	Health string
	// Poison, Dropped and Throttled are the tenant's all-time
	// sanitation rejections, quarantine drops and admission refusals.
	Poison, Dropped, Throttled uint64
	// Trips counts the tenant's lifetime breaker trips.
	Trips uint64
}

// Stats is a point-in-time snapshot of the service's observability
// surface. Take it between rounds for stable tenant numbers.
type Stats struct {
	// Round is the next round index (== completed rounds).
	Round int
	// Deltas counts every Submit ever accepted into a batch (including
	// ones later shed with that batch), across resumes; DeltasThisProcess
	// counts only this process, which is what throughput is computed
	// over. ShedDeltas of them never reached an aggregate.
	Deltas, DeltasThisProcess uint64
	// Batches counts batch merges completed; Overloads counts shed
	// batches, ShedDeltas the deltas they carried.
	Batches, Overloads, ShedDeltas uint64
	// Evictions and Resurrections count tenant lifecycle transitions.
	Evictions, Resurrections uint64
	// Poison counts deltas rejected by sanitation; QuarantineDropped
	// counts deltas counted-and-dropped while their tenant was
	// quarantined; Throttled counts admission-control refusals. None of
	// these ever reached an aggregate.
	Poison, QuarantineDropped, Throttled uint64
	// Trips and Heals count breaker transitions across all tenants.
	Trips, Heals uint64
	// Promotions, PromoRejects and PromoFailures count per-tenant
	// canary-pipeline outcomes (0 unless Config.Promote is armed).
	Promotions, PromoRejects, PromoFailures uint64
	// Faults counts collector faults reported through ReportFault.
	Faults uint64
	// ClosedRejects counts Submits refused after Close (this process).
	ClosedRejects uint64
	// Health counts resident tenants by health state name.
	Health map[string]int
	// ShedByReason breaks down every delta that was refused or dropped
	// before reaching an aggregate, by mechanism: "overload" (queue
	// shed), "throttle", "quarantine", "poison", "closed".
	ShedByReason map[string]uint64
	// QueueHighWater is the deepest the merge queue got (this process).
	QueueHighWater int
	// MergeP50/P99/Max are batch-merge latency quantiles (this process).
	MergeP50, MergeP99, MergeMax time.Duration
	// LiveTenants is the current resident tenant count.
	LiveTenants int
	// GlobalSites and GlobalOps describe the global aggregate.
	GlobalSites int
	GlobalOps   uint64
	// GlobalShards is the global aggregator's per-stripe occupancy and
	// merge-load view.
	GlobalShards []fleet.ShardStat
	// Tenants lists per-tenant stats, sorted by ID.
	Tenants []TenantStat
}

// Stats snapshots the service. Safe to call concurrently with Submit,
// but per-tenant numbers are only round-consistent between rounds.
func (s *Service) Stats() Stats {
	st := Stats{
		Round:             s.Round(),
		DeltasThisProcess: s.met.deltas.Load(),
		QueueHighWater:    int(s.met.queueHighWater.Load()),
		MergeP50:          s.met.merge.quantile(0.50),
		MergeP99:          s.met.merge.quantile(0.99),
		MergeMax:          s.met.merge.max(),
	}
	st.Deltas = st.DeltasThisProcess + s.met.prev.deltas
	st.Batches = s.met.batches.Load() + s.met.prev.batches
	st.Overloads = s.met.overloads.Load() + s.met.prev.overloads
	st.ShedDeltas = s.met.shedDeltas.Load() + s.met.prev.shedDeltas
	st.Evictions = s.met.evictions.Load() + s.met.prev.evictions
	st.Resurrections = s.met.resurrections.Load() + s.met.prev.resurrections
	st.Poison = s.met.poisonRejects.Load() + s.met.prev.poisonRejects
	st.QuarantineDropped = s.met.quarantined.Load() + s.met.prev.quarantined
	st.Throttled = s.met.throttled.Load() + s.met.prev.throttled
	st.Trips = s.met.trips.Load() + s.met.prev.trips
	st.Heals = s.met.heals.Load() + s.met.prev.heals
	st.Promotions = s.met.promotions.Load() + s.met.prev.promotions
	st.PromoRejects = s.met.promoRejects.Load() + s.met.prev.promoRejects
	st.PromoFailures = s.met.promoFailures.Load() + s.met.prev.promoFailures
	st.Faults = s.met.faults.Load() + s.met.prev.faults
	st.ClosedRejects = s.met.closedRejects.Load()
	st.ShedByReason = map[string]uint64{
		"overload":   st.ShedDeltas,
		"throttle":   st.Throttled,
		"quarantine": st.QuarantineDropped,
		"poison":     st.Poison,
		"closed":     st.ClosedRejects,
	}

	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	st.LiveTenants = len(ts)
	st.Health = make(map[string]int)
	for _, t := range ts {
		t.mu.Lock()
		st.Health[t.health.String()]++
		st.Tenants = append(st.Tenants, TenantStat{
			ID: t.id, Deltas: t.deltas, Sites: t.agg.SiteCount(),
			LastActive: t.lastActive, Drift: t.drift,
			Health: t.health.String(),
			Poison: t.poison, Dropped: t.dropped, Throttled: t.throttled,
			Trips: t.brk.Trips(),
		})
		t.mu.Unlock()
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].ID < st.Tenants[j].ID })

	g := s.global.Snapshot()
	st.GlobalSites = len(g.Sites)
	st.GlobalOps = g.Ops
	st.GlobalShards = s.global.ShardStats()
	return st
}
