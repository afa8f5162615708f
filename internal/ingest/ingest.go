// Package ingest is the profile-freshness loop: the multi-tenant
// profile-ingestion service. Each tenant is one fleet (one customer's
// kernel population) whose reporting kernels stream profile deltas in;
// the service batches deltas per tenant, merges batches through a
// bounded worker pool into a per-tenant striped fleet.Aggregator, and
// folds the same batches into a global cross-tenant aggregate — the
// profile a provider-wide PIBE policy build would train on. At every
// round barrier each reporting tenant's snapshot is checked for drift
// against the profile its image was built from and steps the tenant's
// canary-gated fleet.Promoter. `pibe fleet` runs this service with one
// tenant whose deltas come from real workload runs.
//
// The determinism contract is inherited from prof.Merge: counts are
// exact uint64 sums, merging is commutative and associative, so the
// global aggregate — and its canonical serialization — is byte-
// identical for every worker count, queue schedule, batch boundary and
// tenant eviction order, as long as the same deltas arrive. Batching
// and striping change *when* counts are added, never what they sum to.
//
// Backpressure is explicit: the merge queue is bounded. By default a
// producer blocks when the queue is full (lossless, deterministic); in
// shed mode (Config.Shed) a full queue refuses the batch with a
// structured resilience fault (PhaseIngest/KindOverload) instead, the
// producer may back off and retry, and the overload counters quantify
// the resulting under-count.
//
// Tenant lifecycle: tenants are created lazily on first Submit (or
// ReportFault), decay once at every barrier (their aggregate is an
// exponentially weighted moving profile of recent rounds), and after
// Config.IdleEvict idle rounds are evicted with a final crash-safe
// per-tenant checkpoint on the internal/ckpt container format. A later
// Submit for an evicted tenant resurrects it from that checkpoint.
// Eviction and decay touch only the per-tenant view; the global
// aggregate keeps every delta ever merged, which is what makes a
// resumed run's final global snapshot byte-identical to an
// uninterrupted one's.
package ingest

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// Config parameterizes the service.
type Config struct {
	// TenantShards is the lock-stripe count of each per-tenant
	// aggregator (default 4; tenants see modest concurrency).
	TenantShards int
	// GlobalShards is the lock-stripe count of the global cross-tenant
	// aggregator (default 16; every worker contends here).
	GlobalShards int
	// BatchSize is how many deltas accumulate into one pending batch
	// before it is handed to the merge queue (default 64). Partial
	// batches are flushed at EndRound, so no delta waits forever.
	BatchSize int
	// QueueDepth bounds the merge queue (default 64 batches).
	QueueDepth int
	// Workers is the merge worker pool size (default GOMAXPROCS).
	Workers int
	// Shed selects overload shedding: when the queue is full, Submit
	// fails with PhaseIngest/KindOverload instead of blocking.
	Shed bool
	// Decay is the factor every tenant's aggregate is scaled by once at
	// every barrier, after the round's snapshot has fed drift,
	// promotion, health and OnRound; checkpoints and eviction files hold
	// the decayed aggregate. It must lie in (0, 1]: 1 disables decay,
	// 0 selects the default 0.5.
	Decay float64
	// IdleEvict is how many consecutive idle rounds a tenant may have:
	// the barrier that ends its IdleEvict-th idle round evicts it. 0
	// selects the default 4, so eviction cannot be turned off.
	IdleEvict int
	// HotBudget is the hot-set budget for per-tenant drift, in (0, 1]
	// (0 selects the default 0.99): drift is prof.HotOverlap of the
	// tenant's live aggregate against its baseline.
	HotBudget float64
	// Baseline, when non-nil, is every new tenant's drift baseline: the
	// profile its serving image was built from. Nil makes a tenant's
	// first active round's snapshot its baseline. A restored tenant keeps
	// its checkpointed baseline (read it back with Service.Baseline).
	Baseline *prof.Profile
	// TripFaults is how many tenant faults (poison rejections plus
	// admission-control refusals) within one round trip the tenant's
	// circuit breaker (default 8). See internal/ingest/health.go.
	TripFaults uint64
	// OpenRounds is the base quarantine length in rounds (default 2);
	// consecutive re-trips double it up to MaxOpenRounds (default 16).
	OpenRounds    int
	MaxOpenRounds int
	// ProbeJitter adds a deterministic seeded 0..ProbeJitter extra
	// rounds to each quarantine window so tenants tripped together do
	// not re-probe in lockstep (default 1; negative disables).
	ProbeJitter int
	// Seed drives the breakers' jitter streams (per-tenant seeds are
	// derived from it and the tenant id).
	Seed int64
	// TenantRate is the per-tenant token-bucket refill: deltas admitted
	// per tenant per round (0 = unlimited). Refusals are KindOverload
	// faults and feed the tenant's breaker. Engaging the rate limiter
	// (like Shed) gives up the byte-determinism contract: which deltas
	// are refused depends on arrival order.
	TenantRate int
	// TenantBurst caps the bucket (default TenantRate).
	TenantBurst int
	// DriftFloor, when in (0, 1), marks a tenant Degraded when its
	// round drift (HotOverlap against baseline) falls below it. It
	// never trips the breaker — drift is an anomaly signal, not a
	// fault (0 disables; a value outside [0, 1) is rejected).
	DriftFloor float64
	// MaxDeltaCount bounds every count a delta may carry (site counts,
	// invocation counts, ops); larger is poison (default 1<<40).
	MaxDeltaCount uint64
	// Universe, when non-nil, is the known site universe: a delta
	// naming a site ID outside it is poison.
	Universe *prof.Profile
	// Promote, when non-nil, arms the per-tenant canary-gated
	// promotion pipeline (the same Promoter internal/fleet runs):
	// every round, a healthy/degraded tenant's drift feeds a Promoter
	// built over NewController(tenantID). Its DriftThreshold must lie in
	// [0, 1] and its RegressionBudget must be finite; Open rejects
	// anything else rather than run a gate that NaN silently disables.
	Promote *fleet.PromoteConfig
	// NewController supplies each tenant's rebuild hooks (used only
	// with Promote).
	NewController func(tenantID string) *fleet.Controller
	// OnRound, when non-nil, observes every tenant that reported in the
	// round, in tenant-ID order, after the barrier's drift, promotion
	// and health steps and before its decay and checkpoint. Returning an
	// error aborts EndRound before the checkpoint, so the round is lost
	// exactly as in a crash; the service must then be closed.
	OnRound func(TenantRound) error
	// StateDir, when non-empty, enables crash-safe checkpoints: the
	// service checkpoints after every EndRound and evicted tenants get
	// per-tenant files, all on the internal/ckpt container format.
	StateDir string
	// Fingerprint identifies the configuration that produced the
	// state: a resumed checkpoint whose recorded fingerprint differs
	// is rejected rather than silently mixing two runs' counts.
	Fingerprint string
	// Warnf receives degradation warnings (salvaged checkpoints,
	// dropped sections). Defaults to a no-op.
	Warnf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.TenantShards <= 0 {
		c.TenantShards = 4
	}
	if c.GlobalShards <= 0 {
		c.GlobalShards = 16
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if !(c.Decay > 0 && c.Decay <= 1) {
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			"decay", "decay %g outside (0, 1]", c.Decay)
	}
	if c.IdleEvict < 0 {
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			"idle-evict", "negative idle-evict %d", c.IdleEvict)
	}
	if c.IdleEvict == 0 {
		c.IdleEvict = 4
	}
	if c.HotBudget == 0 {
		c.HotBudget = 0.99
	}
	if !(c.HotBudget > 0 && c.HotBudget <= 1) {
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			"hot-budget", "hot budget %g outside (0, 1]", c.HotBudget)
	}
	if c.TripFaults == 0 {
		c.TripFaults = 8
	}
	if c.OpenRounds <= 0 {
		c.OpenRounds = 2
	}
	if c.MaxOpenRounds <= 0 {
		c.MaxOpenRounds = 16
	}
	if c.MaxOpenRounds < c.OpenRounds {
		c.MaxOpenRounds = c.OpenRounds
	}
	if c.TenantRate < 0 {
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			"tenant-rate", "negative tenant rate %d", c.TenantRate)
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRate
	}
	if !(c.DriftFloor >= 0 && c.DriftFloor < 1) {
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			"drift-floor", "drift floor %g outside [0, 1)", c.DriftFloor)
	}
	if c.MaxDeltaCount == 0 {
		c.MaxDeltaCount = 1 << 40
	}
	if p := c.Promote; p != nil {
		if c.NewController == nil {
			return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
				"promote", "Promote configured without NewController")
		}
		if !(p.DriftThreshold >= 0 && p.DriftThreshold <= 1) {
			return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
				"drift-threshold", "drift threshold %g outside [0, 1]", p.DriftThreshold)
		}
		if math.IsNaN(p.RegressionBudget) || math.IsInf(p.RegressionBudget, 0) {
			return resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
				"regression-budget", "regression budget %g is not finite", p.RegressionBudget)
		}
	}
	if c.Warnf == nil {
		c.Warnf = func(string, ...any) {}
	}
	return nil
}

// tenant is one fleet's ingestion state. Its mutex guards the pending
// batch; the aggregator has its own striping.
type tenant struct {
	id string

	mu       sync.Mutex
	pending  *prof.Profile
	pendingN int

	agg *fleet.Aggregator
	// baseline is Config.Baseline or else the snapshot at the end of the
	// tenant's first active round, advanced by every promotion; drift is
	// measured against it.
	baseline *prof.Profile
	// lastActive is the round index of the tenant's most recent Submit
	// or ReportFault.
	lastActive int
	// deltas counts every delta the tenant ever submitted (persisted).
	deltas uint64
	// drift is the most recent EndRound's HotOverlap against baseline.
	drift float64

	// Fault-isolation state (see health.go). health and brk advance
	// only at the EndRound barrier; the round* fields are the current
	// round's fault window, consumed there.
	health Health
	brk    *resilience.Breaker
	// tokens is the admission-control bucket (unused when TenantRate
	// is 0).
	tokens int
	// All-time tallies, persisted: poison deltas rejected by
	// sanitation, deltas dropped while quarantined, deltas refused by
	// the rate limiter.
	poison, dropped, throttled uint64
	// Current round's window: submissions seen, poison among them,
	// admission refusals among them, and the kinds of the collector
	// faults ReportFault recorded.
	roundSubmits, roundPoison, roundOverload uint64
	roundKinds                               map[string]bool

	// Per-tenant promotion pipeline (armed by Config.Promote; lazily
	// built). promoted / promoRejected / promoFailures persist.
	promo         *fleet.Promoter
	promoted      int
	promoRejected int
	promoFailures int
}

// batch is one unit of merge work: a pre-merged group of n deltas
// belonging to one tenant.
type batch struct {
	t *tenant
	p *prof.Profile
	n int
}

// Service is the multi-tenant ingestion front. Construct with Open,
// drive with Submit/EndRound, stop with Close.
type Service struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	ended   bool // Close was called

	// round is the index of the round currently being ingested; it
	// advances at the EndRound barrier. Atomic so the Submit hot path
	// never touches the service mutex just to stamp lastActive.
	round atomic.Int64

	global *fleet.Aggregator

	queue    chan batch
	inflight sync.WaitGroup
	workers  sync.WaitGroup

	// qmu serializes queue sends against Close's close(queue): sends
	// happen under the read lock with qclosed false, the close under
	// the write lock — so a Submit racing (or following) Close gets a
	// structured PhaseIngest/KindClosed fault instead of a panic on a
	// closed channel.
	qmu     sync.RWMutex
	qclosed bool

	met metrics

	// gate, when non-nil, is a test hook: workers receive from it
	// before touching each batch, so tests can hold the queue full and
	// provoke overload deterministically.
	gate chan struct{}
}

// Open builds a service and, when cfg.StateDir is set and holds a
// checkpoint, resumes from it: the round counter, counters, global
// aggregate and live tenants are restored, fingerprint-gated. A
// missing checkpoint is a fresh start, a damaged one degrades
// leniently (warnings via cfg.Warnf), a fingerprint mismatch is an
// error.
func Open(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		global:  fleet.NewAggregator(cfg.GlobalShards, 1), // exact: never decays
		queue:   make(chan batch, cfg.QueueDepth),
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("ingest: state dir: %w", err)
		}
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Round returns the index of the next round to run: 0 for a fresh
// service, the checkpointed round count after a resume.
func (s *Service) Round() int {
	return int(s.round.Load())
}

// newTenantAgg builds the striped per-tenant aggregator.
func (s *Service) newTenantAgg() *fleet.Aggregator {
	return fleet.NewAggregator(s.cfg.TenantShards, s.cfg.Decay)
}

// newTenant builds a fresh tenant: an empty aggregate, Config.Baseline,
// a closed breaker and a full token bucket.
func (s *Service) newTenant(id string) *tenant {
	return &tenant{
		id: id, agg: s.newTenantAgg(), baseline: s.cfg.Baseline,
		brk:    resilience.NewBreaker(s.breakerConfig(id)),
		tokens: s.cfg.TenantBurst,
	}
}

// validTenantID reports whether id is usable: non-empty, and a safe
// checkpoint-section / file-name token ([A-Za-z0-9._-], no leading
// dot so eviction files cannot hide or escape).
func validTenantID(id string) bool {
	if id == "" || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// lookup returns the tenant, creating or resurrecting it if needed.
func (s *Service) lookup(id string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return nil, resilience.Faultf(resilience.PhaseIngest, resilience.KindClosed,
			id, "service closed")
	}
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if !validTenantID(id) {
		return nil, resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig,
			id, "invalid tenant id %q: want [A-Za-z0-9._-]+ not starting with a dot", id)
	}
	t := s.newTenant(id)
	if s.cfg.StateDir != "" {
		res, err := s.loadTenantFile(id)
		if err != nil {
			return nil, err
		}
		if res != nil {
			t = res
			s.met.resurrections.Add(1)
		}
	}
	t.lastActive = s.Round()
	s.tenants[id] = t
	return t, nil
}

// resident returns tenant id if it is resident, or nil.
func (s *Service) resident(id string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

// Baseline returns resident tenant id's drift baseline (Config.Baseline,
// its first active round's snapshot, its last promoted snapshot, or what
// a resumed checkpoint restored), or nil when the tenant is not resident
// or has none yet.
func (s *Service) Baseline(id string) *prof.Profile {
	t := s.resident(id)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseline
}

// TenantSnapshot returns a copy of resident tenant id's aggregate, as
// the last barrier left it (decayed), or nil when the tenant is not
// resident.
func (s *Service) TenantSnapshot(id string) *prof.Profile {
	if t := s.resident(id); t != nil {
		return t.agg.Snapshot()
	}
	return nil
}

// Submit ingests one profile delta for the tenant. The delta runs the
// isolation gauntlet before it can touch a batch: a quarantined
// tenant's delta is counted and dropped (KindQuarantined) before the
// two-level merge; the token bucket may refuse it (KindOverload);
// sanitation rejects a malformed delta (KindPoison). A surviving delta
// is only read, never retained: it is merged into the tenant's pending
// batch under the tenant lock (level-0 merge), and a full batch is
// handed to the bounded merge queue. With Config.Shed, a full queue
// sheds the batch and Submit returns a PhaseIngest/KindOverload fault —
// the delta counts submitted in that batch are lost and tallied in the
// shed counters; without it, Submit blocks until the queue drains.
// After Close, Submit returns a PhaseIngest/KindClosed fault.
//
// Submit is safe for concurrent use across and within tenants.
func (s *Service) Submit(tenantID string, delta *prof.Profile) error {
	if delta == nil {
		return nil
	}
	t, err := s.lookup(tenantID)
	if err != nil {
		return err
	}
	s.met.deltas.Add(1)
	poison := s.sanitize(delta) // read-only; outside all locks

	t.mu.Lock()
	t.lastActive = s.Round()
	t.deltas++
	t.roundSubmits++
	if t.health == Quarantined {
		t.dropped++
		t.mu.Unlock()
		s.met.quarantined.Add(1)
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindQuarantined,
			t.id, "tenant quarantined; delta dropped")
	}
	if s.cfg.TenantRate > 0 {
		if t.tokens <= 0 {
			t.throttled++
			t.roundOverload++
			t.mu.Unlock()
			s.met.throttled.Add(1)
			return resilience.Faultf(resilience.PhaseIngest, resilience.KindOverload,
				t.id, "tenant over admission rate (%d/round); delta refused", s.cfg.TenantRate)
		}
		t.tokens--
	}
	if poison != nil {
		t.poison++
		t.roundPoison++
		t.mu.Unlock()
		s.met.poisonRejects.Add(1)
		return resilience.Fault(resilience.PhaseIngest, resilience.KindPoison, t.id, poison)
	}
	if t.pending == nil {
		t.pending = prof.New()
	}
	t.pending.Merge(delta)
	t.pendingN++
	if t.pendingN < s.cfg.BatchSize {
		t.mu.Unlock()
		return nil
	}
	b := batch{t: t, p: t.pending, n: t.pendingN}
	t.pending, t.pendingN = nil, 0
	t.mu.Unlock()
	return s.enqueue(b, s.cfg.Shed)
}

// ReportFault records that one of the tenant's collectors aborted or
// failed this round, with the fault kind behind it ("" when the failure
// carried none). The report marks the tenant as reporting in this
// round, so its barrier still measures drift and steps its promotion
// pipeline when no delta arrived, and the kind reaches the canary's
// new-fault-kind gate. It never feeds the tenant's circuit breaker: a
// collector's own fault says nothing about the deltas the tenant sends.
// Like Submit, it is safe for concurrent use.
func (s *Service) ReportFault(tenantID, kind string) error {
	t, err := s.lookup(tenantID)
	if err != nil {
		return err
	}
	s.met.faults.Add(1)
	t.mu.Lock()
	t.lastActive = s.Round()
	if kind != "" {
		if t.roundKinds == nil {
			t.roundKinds = make(map[string]bool)
		}
		t.roundKinds[kind] = true
	}
	t.mu.Unlock()
	return nil
}

// enqueue hands a batch to the merge queue. shed selects the overload
// policy; EndRound's partial-batch flush always passes shed=false so a
// round barrier is lossless even in shed mode. The send happens under
// the queue read-lock so it can never race Close's close(queue).
func (s *Service) enqueue(b batch, shed bool) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		s.met.closedRejects.Add(1)
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindClosed,
			b.t.id, "service closed; %d-delta batch refused", b.n)
	}
	s.inflight.Add(1)
	if shed {
		select {
		case s.queue <- b:
		default:
			s.inflight.Done()
			s.met.overloads.Add(1)
			s.met.shedDeltas.Add(uint64(b.n))
			b.t.mu.Lock()
			b.t.roundOverload++
			b.t.mu.Unlock()
			return resilience.Faultf(resilience.PhaseIngest, resilience.KindOverload,
				b.t.id, "merge queue full (%d batches); %d-delta batch shed", s.cfg.QueueDepth, b.n)
		}
	} else {
		// Sample the depth before a blocking send as well as after it:
		// a producer about to block is exactly the moment the queue is
		// at its deepest, and sampling only after the send misses it
		// whenever a worker drains the queue while we wait.
		s.met.noteQueueDepth(len(s.queue))
		s.queue <- b
	}
	s.met.noteQueueDepth(len(s.queue))
	return nil
}

// worker drains the merge queue: each batch is folded into its
// tenant's aggregator and the global aggregate, and the pair of merges
// is timed into the latency histogram.
func (s *Service) worker() {
	defer s.workers.Done()
	for b := range s.queue {
		if s.gate != nil {
			<-s.gate
		}
		start := time.Now()
		b.t.agg.Add(b.p)
		s.global.Add(b.p)
		s.met.noteMerge(time.Since(start))
		s.met.batches.Add(1)
		s.inflight.Done()
	}
}

// TenantRound is one reporting tenant's view of a round barrier, as
// Config.OnRound observes it.
type TenantRound struct {
	Tenant string
	Round  int
	// Snapshot is the tenant aggregate the barrier's drift, promotion
	// and health steps read, before the barrier's decay.
	Snapshot *prof.Profile
	// Drift is the hot-set overlap of Snapshot with the tenant's
	// baseline (1 = no drift).
	Drift float64
	// Promotion is what the tenant's promotion pipeline did this round
	// (the zero value when Promote is off or the bulkhead is closed).
	Promotion fleet.StepOutcome
}

// EndRound is the round barrier. The caller must have quiesced its
// producers (no Submit or ReportFault may be concurrent with EndRound).
// It flushes every tenant's partial pending batch (losslessly, even in
// shed mode), waits for the merge queue to drain, then runs tenant
// lifecycle: a tenant that reported this round gets a fresh snapshot, a
// baseline if it had none, a drift measurement and a step of its
// promotion pipeline; every tenant's health state machine advances (see
// health.go — this barrier is the only place breakers transition, which
// is what keeps quarantine windows schedule-independent); Config.OnRound
// observes the reporting tenants; then every tenant's aggregate decays
// once, and tenants idle for Config.IdleEvict rounds are evicted with a
// final per-tenant checkpoint. Finally the service checkpoints itself
// (when StateDir is set) and the round counter advances.
func (s *Service) EndRound() error {
	round := s.Round()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return resilience.Faultf(resilience.PhaseIngest, resilience.KindClosed,
			"end-round", "service closed")
	}
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })

	for _, t := range ts {
		t.mu.Lock()
		if t.pendingN > 0 {
			b := batch{t: t, p: t.pending, n: t.pendingN}
			t.pending, t.pendingN = nil, 0
			t.mu.Unlock()
			if err := s.enqueue(b, false); err != nil {
				return err
			}
		} else {
			t.mu.Unlock()
		}
	}
	s.inflight.Wait()

	// Lifecycle. The tenant lock is uncontended here (producers are
	// quiesced) but keeps a concurrent Stats reader from seeing torn
	// drift/baseline updates.
	var reports []TenantRound
	for _, t := range ts {
		t.mu.Lock()
		active := t.lastActive == round
		if active {
			snap := t.agg.Snapshot()
			if t.baseline == nil {
				t.baseline = snap.Clone()
			}
			t.drift = prof.HotOverlap(snap, t.baseline, s.cfg.HotBudget)
			out := s.promoteStep(t, snap)
			reports = append(reports, TenantRound{
				Tenant: t.id, Round: round, Snapshot: snap, Drift: t.drift, Promotion: out,
			})
		}
		s.healthStep(t, active)
		t.mu.Unlock()
	}
	if s.cfg.OnRound != nil {
		for _, r := range reports {
			if err := s.cfg.OnRound(r); err != nil {
				return fmt.Errorf("ingest: round %d observer: %w", round, err)
			}
		}
	}

	for _, t := range ts {
		t.mu.Lock()
		t.agg.Decay()
		if round-t.lastActive >= s.cfg.IdleEvict {
			// Evict: persist the final per-tenant checkpoint BEFORE
			// removing the tenant, so a crash between the two leaves a
			// resumable superset (the service checkpoint from round-1
			// still lists the tenant live; replay overwrites this file
			// at the same point).
			if s.cfg.StateDir != "" {
				if err := saveTenantFile(s.cfg.StateDir, t); err != nil {
					t.mu.Unlock()
					return err
				}
			}
			s.mu.Lock()
			delete(s.tenants, t.id)
			s.mu.Unlock()
			s.met.evictions.Add(1)
		}
		t.mu.Unlock()
	}

	if s.cfg.StateDir != "" {
		if err := s.checkpoint(round + 1); err != nil {
			return err
		}
	}
	s.round.Store(int64(round + 1))
	return nil
}

// GlobalSnapshot returns the current global cross-tenant aggregate as
// one merged profile — the canonical, order-independent artifact whose
// serialization the crash-resume and determinism guarantees are stated
// over. Call between rounds (after EndRound) for a stable view.
func (s *Service) GlobalSnapshot() *prof.Profile {
	return s.global.Snapshot()
}

// Close flushes every pending batch, drains the queue and stops the
// workers. Submit and EndRound after Close return a structured
// PhaseIngest/KindClosed fault. Close does not checkpoint: state is
// only ever persisted at round barriers, which is what makes a SIGKILL
// and a Close look identical on disk.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return nil
	}
	s.ended = true
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.mu.Lock()
		if t.pendingN > 0 {
			b := batch{t: t, p: t.pending, n: t.pendingN}
			t.pending, t.pendingN = nil, 0
			t.mu.Unlock()
			s.enqueue(b, false)
		} else {
			t.mu.Unlock()
		}
	}
	s.inflight.Wait()
	s.qmu.Lock()
	s.qclosed = true
	close(s.queue)
	s.qmu.Unlock()
	s.workers.Wait()
	return nil
}

// openGate arms the worker gate for tests. Must be called before any
// Submit. Each send on the returned channel releases one batch.
func (s *Service) openGate() chan struct{} {
	s.gate = make(chan struct{})
	return s.gate
}
