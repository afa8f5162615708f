package ingest

// Tenant fault isolation: the bulkhead layer of the multi-tenant
// ingestion front. One misbehaving tenant — a fleet whose collectors
// ship malformed ("poison") deltas, or one that floods the service —
// must not corrupt the global aggregate or starve its neighbors. Three
// mechanisms compose here:
//
//   - Sanitation: every delta is structurally validated at Submit,
//     before it can touch a pending batch. A malformed delta is
//     rejected with PhaseIngest/KindPoison and never merges, which is
//     what makes the quarantine guarantee byte-exact rather than
//     approximate.
//
//   - A per-tenant circuit breaker (resilience.Breaker) driven at the
//     round barrier from the tenant's per-round fault tallies. The
//     breaker's state maps onto the tenant health state machine:
//
//         healthy ──faults──▶ degraded ──burst──▶ quarantined
//            ▲                                        │ open window
//            └────── clean probe round ── probation ◀─┘
//
//     While quarantined, the tenant's submissions are counted and
//     dropped before the two-level merge. Probation (breaker
//     half-open) admits the whole next active round as the probe
//     batch: a fault-free probed round heals, any fault re-trips with
//     an escalated window.
//
//   - Token-bucket admission control (Config.TenantRate/TenantBurst):
//     a tenant that exceeds its refill rate is refused with
//     KindOverload, which feeds the same breaker — sustained flooding
//     quarantines the tenant instead of degrading everyone.
//
// Every transition happens at the EndRound barrier and is computed
// from per-round fault *counts*, never from arrival order — so health,
// trips and quarantine windows are identical for every worker count
// and schedule, and they checkpoint/restore byte-identically.

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// Health is a tenant's position in the fault-isolation state machine.
type Health int

const (
	// Healthy: no faults in the last completed round.
	Healthy Health = iota
	// Degraded: the tenant faulted (poison, throttle) or drifted below
	// Config.DriftFloor in the last round, but below the trip threshold.
	// Traffic still flows.
	Degraded
	// Quarantined: the tenant's breaker is open; its submissions are
	// counted and dropped before the merge.
	Quarantined
	// Probation: the breaker is half-open; the tenant's next active
	// round is the probe batch deciding between healing and re-trip.
	Probation
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// parseHealth inverts Health.String.
func parseHealth(s string) (Health, error) {
	switch s {
	case "healthy":
		return Healthy, nil
	case "degraded":
		return Degraded, nil
	case "quarantined":
		return Quarantined, nil
	case "probation":
		return Probation, nil
	}
	return Healthy, fmt.Errorf("unknown health state %q", s)
}

// breakerConfig derives tenant id's breaker config: shared thresholds,
// a per-tenant jitter seed (so a population tripped by one incident
// does not re-probe in lockstep), both pure functions of the service
// config and the id.
func (s *Service) breakerConfig(id string) resilience.BreakerConfig {
	h := fnv.New64a()
	io.WriteString(h, id)
	return resilience.BreakerConfig{
		TripFaults:   s.cfg.TripFaults,
		OpenSteps:    s.cfg.OpenRounds,
		MaxOpenSteps: s.cfg.MaxOpenRounds,
		JitterSteps:  s.cfg.ProbeJitter,
		Seed:         s.cfg.Seed ^ int64(h.Sum64()),
	}
}

// sanitize structurally validates a delta before it can reach a
// pending batch. It only reads the delta. A nil error means the delta
// is well-formed (an empty delta is a valid no-op); any defect is
// poison. The checks are exactly the invariants prof.Merge and the
// serialization rely on: non-empty names, non-zero bounded counts, a
// value profile that sums to its site count, and (when a site universe
// is configured) site IDs that exist in it.
func (s *Service) sanitize(delta *prof.Profile) error {
	max := s.cfg.MaxDeltaCount
	if delta.Ops > max {
		return fmt.Errorf("ops %d exceeds max delta count %d", delta.Ops, max)
	}
	for id, site := range delta.Sites {
		if site == nil {
			return fmt.Errorf("site %d: nil record", id)
		}
		if site.Caller == "" {
			return fmt.Errorf("site %d: empty caller", id)
		}
		if site.Count == 0 {
			return fmt.Errorf("site %d: zero count", id)
		}
		if site.Count > max {
			return fmt.Errorf("site %d: count %d exceeds max delta count %d", id, site.Count, max)
		}
		if s.cfg.Universe != nil {
			if _, ok := s.cfg.Universe.Sites[id]; !ok {
				return fmt.Errorf("site %d: not in the configured site universe", id)
			}
		}
		if !site.Indirect() {
			if site.Callee == "" {
				return fmt.Errorf("site %d: direct site with empty callee", id)
			}
			continue
		}
		var sum uint64
		for name, n := range site.Targets {
			if name == "" {
				return fmt.Errorf("site %d: empty target name", id)
			}
			if n == 0 {
				return fmt.Errorf("site %d: target %s with zero count", id, name)
			}
			sum += n
			if sum < n {
				return fmt.Errorf("site %d: target counts overflow", id)
			}
		}
		if sum != site.Count {
			return fmt.Errorf("site %d: target counts sum to %d, site count is %d", id, sum, site.Count)
		}
	}
	for fn, n := range delta.Invocations {
		if fn == "" {
			return fmt.Errorf("invocation with empty function name")
		}
		if n == 0 || n > max {
			return fmt.Errorf("invocation %s: count %d out of (0, %d]", fn, n, max)
		}
	}
	return nil
}

// healthStep advances tenant t's breaker and health at the round
// barrier. Called from EndRound with t.mu held and producers quiesced.
// active reports whether the tenant submitted this round (drift is
// only meaningful then). The per-round fault window is consumed and
// reset; the token bucket refills.
func (s *Service) healthStep(t *tenant, active bool) {
	faults := t.roundPoison + t.roundOverload
	t.brk.Observe(t.roundSubmits, faults)
	tripped, healed := t.brk.Advance()
	if tripped {
		s.met.trips.Add(1)
	}
	if healed {
		s.met.heals.Add(1)
	}
	switch t.brk.State() {
	case resilience.BreakerOpen:
		t.health = Quarantined
	case resilience.BreakerHalfOpen:
		t.health = Probation
	default:
		if faults > 0 || (s.cfg.DriftFloor > 0 && active && t.baseline != nil && t.drift < s.cfg.DriftFloor) {
			t.health = Degraded
		} else {
			t.health = Healthy
		}
	}
	t.roundSubmits, t.roundPoison, t.roundOverload = 0, 0, 0
	t.roundKinds = nil
	if s.cfg.TenantRate > 0 {
		t.tokens += s.cfg.TenantRate
		if t.tokens > s.cfg.TenantBurst {
			t.tokens = s.cfg.TenantBurst
		}
	}
}

// newPromoter builds tenant t's canary-gated promotion pipeline from
// the service config, one instance per tenant.
func (s *Service) newPromoter(t *tenant) *fleet.Promoter {
	var ctrl *fleet.Controller
	if s.cfg.NewController != nil {
		ctrl = s.cfg.NewController(t.id)
	}
	return fleet.NewPromoter(*s.cfg.Promote, ctrl, t.baseline)
}

// promoteStep advances tenant t's per-tenant promotion pipeline by one
// round and returns what it did. Called from EndRound with t.mu held,
// after drift is computed and before the fault window resets (it reads
// the window for the canary's fault-kind gate: the collector fault
// kinds ReportFault recorded, plus overload and poison). Only tenants
// whose bulkhead is passing traffic (healthy or degraded, judged on the
// health entering this round) feed the pipeline: a quarantined tenant's
// snapshot is frozen noise and must not drive a rebuild.
func (s *Service) promoteStep(t *tenant, snap *prof.Profile) fleet.StepOutcome {
	if s.cfg.Promote == nil || (t.health != Healthy && t.health != Degraded) {
		return fleet.StepOutcome{}
	}
	if t.promo == nil {
		t.promo = s.newPromoter(t)
	}
	kinds := make([]string, 0, len(t.roundKinds)+2)
	for k := range t.roundKinds {
		kinds = append(kinds, k)
	}
	if t.roundOverload > 0 {
		kinds = append(kinds, string(resilience.KindOverload))
	}
	if t.roundPoison > 0 {
		kinds = append(kinds, string(resilience.KindPoison))
	}
	sort.Strings(kinds)
	out := t.promo.Step(t.drift, snap, kinds)
	if out.Promoted {
		t.promoted++
		t.baseline = t.promo.Baseline()
		s.met.promotions.Add(1)
	}
	if out.Rejected != "" {
		t.promoRejected++
		s.met.promoRejects.Add(1)
	}
	if out.RebuildErr != "" {
		t.promoFailures++
		s.met.promoFailures.Add(1)
	}
	return out
}
