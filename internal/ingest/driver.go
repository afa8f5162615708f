package ingest

// The ingest simulator: a deterministic population of reporting
// kernels driving the service. Every tenant is one simulated fleet,
// every kernel of that fleet submits one profile delta per round, and
// the delta is a pure function of (seed, tenant, kernel, round) — so
// the fan-out can run on any worker count through the deterministic
// parallel measurement driver (workload.RunCells) and the service's
// final global aggregate is byte-identical regardless of scheduling.
//
// The simulated workload has structure the service's observability
// can see: each tenant draws sites from its base profile (a real
// profiling run of one workload flavor) inside a hot window that
// rotates with the round index, so per-tenant drift is visible; every
// fourth tenant reports only intermittently, exercising decay while
// idle, eviction and resurrection.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/ir"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Base is one tenant-population archetype: a named base profile whose
// sites the tenant's kernels report against. Tenant t uses
// Bases[t % len(Bases)].
type Base struct {
	Name string
	Prof *prof.Profile
}

// SimConfig parameterizes the simulator.
type SimConfig struct {
	// Tenants is the fleet count; Kernels the reporting kernels per
	// tenant. Tenants × Kernels is the simulated kernel population.
	Tenants, Kernels int
	// Rounds is how many reporting rounds to run.
	Rounds int
	// Workers is the submission fan-out width (default GOMAXPROCS via
	// workload.RunCells semantics; it never affects the result).
	Workers int
	// SitesPerDelta is how many site records one delta carries
	// (default 12 — a kernel reports its recent hot sites, not its
	// whole profile).
	SitesPerDelta int
	// Seed drives every random choice, via per-(tenant, kernel, round)
	// derived generators.
	Seed int64
	// Bases are the tenant archetypes; at least one is required.
	Bases []Base
	// Poison, when non-nil, adds one extra tenant (PoisonTenantID)
	// whose kernels report structurally malformed deltas — the chaos
	// input the fault-isolation layer exists for.
	Poison *PoisonConfig
	// RoundHook, when non-nil, runs after each completed round (and
	// its EndRound barrier). Returning an error stops the run — the
	// CLI uses it for per-round progress, tests for mid-run kills.
	RoundHook func(round int, svc *Service) error
}

// PoisonTenantID names the simulated poison tenant.
const PoisonTenantID = "poison"

// PoisonConfig shapes the poison tenant.
type PoisonConfig struct {
	// Kernels is how many malformed deltas the poison tenant submits
	// per round (default 16 — comfortably past the default trip
	// threshold, so the breaker engages within one round).
	Kernels int
	// FromRound is the first round the poison tenant reports in.
	FromRound int
}

// simSite is one precomputed base-profile site, in deterministic
// (ID-sorted) order with ID-stable target lists.
type simSite struct {
	id       ir.SiteID
	caller   string
	callee   string
	targets  []string
	indirect bool
}

// Sim is a constructed simulator.
type Sim struct {
	cfg   SimConfig
	sites [][]simSite // per base, sorted by site ID
}

// NewSim validates the config and precomputes the per-base site lists.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Tenants <= 0 || cfg.Kernels <= 0 || cfg.Rounds <= 0 {
		return nil, resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig, "sim",
			"tenants (%d), kernels (%d) and rounds (%d) must all be positive",
			cfg.Tenants, cfg.Kernels, cfg.Rounds)
	}
	if len(cfg.Bases) == 0 {
		return nil, resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig, "sim",
			"at least one base profile is required")
	}
	if cfg.SitesPerDelta <= 0 {
		cfg.SitesPerDelta = 12
	}
	if cfg.Poison != nil {
		p := *cfg.Poison
		if p.Kernels <= 0 {
			p.Kernels = 16
		}
		if p.FromRound < 0 {
			p.FromRound = 0
		}
		cfg.Poison = &p
	}
	s := &Sim{cfg: cfg}
	for _, b := range cfg.Bases {
		if b.Prof == nil || len(b.Prof.Sites) == 0 {
			return nil, resilience.Faultf(resilience.PhaseIngest, resilience.KindConfig, b.Name,
				"base profile %q is empty", b.Name)
		}
		sites := make([]simSite, 0, len(b.Prof.Sites))
		for id, site := range b.Prof.Sites {
			ss := simSite{id: id, caller: site.Caller, callee: site.Callee, indirect: site.Indirect()}
			if ss.indirect {
				for _, t := range site.SortedTargets() {
					ss.targets = append(ss.targets, t.Name)
				}
			}
			sites = append(sites, ss)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].id < sites[j].id })
		s.sites = append(s.sites, sites)
	}
	return s, nil
}

// TenantID names tenant t.
func (s *Sim) TenantID(t int) string { return fmt.Sprintf("t%03d", t) }

// Active reports whether tenant t reports in round r: every fourth
// tenant is intermittent (two rounds on, two rounds off), the rest
// always report.
func (s *Sim) Active(t, r int) bool {
	return t%4 != 3 || (r/2)%2 == 0
}

// deltaRNG is a splitmix64 stream seeded from (seed, t, k, r) — the
// same derived-seed discipline the measurement cells use, so a delta
// depends only on its coordinates, never on scheduling.
type deltaRNG uint64

func newDeltaRNG(seed int64, t, k, r int) deltaRNG {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{uint64(seed), uint64(t), uint64(k), uint64(r)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return deltaRNG(h.Sum64())
}

func (g *deltaRNG) next() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Delta builds the profile delta kernel k of tenant t reports in
// round r: SitesPerDelta samples drawn from a hot window of the
// tenant's base-profile site list. The window rotates with the round
// (one eighth of the list per round), so consecutive rounds overlap
// but the hot set visibly drifts — which is what the per-tenant drift
// metric exists to observe.
func (s *Sim) Delta(t, k, r int) *prof.Profile {
	rng := newDeltaRNG(s.cfg.Seed, t, k, r)
	sites := s.sites[t%len(s.sites)]
	n := len(sites)
	win := n / 4
	if win < 1 {
		win = 1
	}
	start := (r * n / 8) % n
	p := prof.New()
	for i := 0; i < s.cfg.SitesPerDelta; i++ {
		site := sites[(start+int(rng.next()%uint64(win)))%n]
		count := 1 + rng.next()%256
		if site.indirect {
			target := site.targets[int(rng.next()%uint64(len(site.targets)))]
			p.AddIndirect(site.id, site.caller, target, count)
		} else {
			p.AddDirect(site.id, site.caller, site.callee, count)
		}
		p.AddInvocation(site.caller, 1)
	}
	p.Ops = 1 // one reporting operation per delta
	return p
}

// PoisonDelta builds the malformed delta kernel k of the poison
// tenant reports in round r: an indirect site whose value profile
// does not sum to its site count — exactly the inconsistency
// sanitation exists to catch, and malformed under any Universe. Like
// Delta it is a pure function of its coordinates.
func (s *Sim) PoisonDelta(k, r int) *prof.Profile {
	rng := newDeltaRNG(s.cfg.Seed, 1<<20, k, r)
	p := prof.New()
	id := ir.SiteID(1<<28 | int32(rng.next()%1024))
	p.AddIndirect(id, "poison_caller", "poison_target", 3)
	p.Sites[id].Count = 7
	return p
}

// tolerable reports whether a Submit error is one the simulation
// absorbs without stopping the round: queue/rate shedding, sanitation
// rejections and quarantine drops are all counted by the service and
// are the behavior under test, not a failure of the run.
func tolerable(err error) bool {
	return resilience.IsKind(err, resilience.KindOverload) ||
		resilience.IsKind(err, resilience.KindPoison) ||
		resilience.IsKind(err, resilience.KindQuarantined)
}

// Run drives the service from its current round (0 fresh, the
// checkpointed round after a resume) to cfg.Rounds: each round fans
// the active tenants' kernels out over workload.RunCells, submits the
// poison tenant's malformed deltas (when configured), then runs the
// EndRound barrier. Overload, poison and quarantine faults are counted
// by the service and do not stop the run; any other Submit error does.
// Run is idempotent once the rounds are complete.
func (s *Sim) Run(svc *Service) error {
	for r := svc.Round(); r < s.cfg.Rounds; r++ {
		var active []int
		for t := 0; t < s.cfg.Tenants; t++ {
			if s.Active(t, r) {
				active = append(active, t)
			}
		}
		round := r
		err := workload.RunCells(len(active)*s.cfg.Kernels, s.cfg.Workers, func(i int) error {
			t := active[i/s.cfg.Kernels]
			k := i % s.cfg.Kernels
			err := svc.Submit(s.TenantID(t), s.Delta(t, k, round))
			if tolerable(err) {
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
		if p := s.cfg.Poison; p != nil && round >= p.FromRound {
			for k := 0; k < p.Kernels; k++ {
				if err := svc.Submit(PoisonTenantID, s.PoisonDelta(k, round)); err != nil && !tolerable(err) {
					return err
				}
			}
		}
		if err := svc.EndRound(); err != nil {
			return err
		}
		if s.cfg.RoundHook != nil {
			if err := s.cfg.RoundHook(round, svc); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlatMerge enumerates every delta of every round and merges them into
// one profile serially — the reference the service's global aggregate
// must equal byte-for-byte in lossless (non-shed) mode, whatever the
// worker count, batch boundaries or tenant lifecycle did.
func (s *Sim) FlatMerge() *prof.Profile {
	out := prof.New()
	for r := 0; r < s.cfg.Rounds; r++ {
		for t := 0; t < s.cfg.Tenants; t++ {
			if !s.Active(t, r) {
				continue
			}
			for k := 0; k < s.cfg.Kernels; k++ {
				out.Merge(s.Delta(t, k, r))
			}
		}
	}
	return out
}

// Fingerprint identifies the (sim, service) configuration for the
// checkpoint's resume gate. It covers everything that changes what
// the deltas or the lifecycle *are* — and deliberately excludes what
// only changes scheduling (workers, queue depth, stripe counts), so a
// resume on a differently-parallel box is allowed and still
// byte-identical.
func (s *Sim) Fingerprint(svc Config) string {
	svc.fill() // hash the effective knobs, not zero-valued defaults
	h := fnv.New64a()
	fmt.Fprintf(h, "seed %d\ntenants %d\nkernels %d\nrounds %d\nsites-per-delta %d\n",
		s.cfg.Seed, s.cfg.Tenants, s.cfg.Kernels, s.cfg.Rounds, s.cfg.SitesPerDelta)
	for _, b := range s.cfg.Bases {
		fmt.Fprintf(h, "base %s\n", b.Name)
	}
	fmt.Fprintf(h, "batch %d\nshed %t\ndecay %g\nidle-evict %d\nhot-budget %g\n",
		svc.BatchSize, svc.Shed, svc.Decay, svc.IdleEvict, svc.HotBudget)
	fmt.Fprintf(h, "trip %d\nopen %d\nmax-open %d\njitter %d\nbrk-seed %d\n",
		svc.TripFaults, svc.OpenRounds, svc.MaxOpenRounds, svc.ProbeJitter, svc.Seed)
	fmt.Fprintf(h, "rate %d\nburst %d\ndrift-floor %g\nmax-delta %d\nuniverse %t\n",
		svc.TenantRate, svc.TenantBurst, svc.DriftFloor, svc.MaxDeltaCount, svc.Universe != nil)
	if p := s.cfg.Poison; p != nil {
		fmt.Fprintf(h, "poison %d from %d\n", p.Kernels, p.FromRound)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
