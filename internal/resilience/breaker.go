package resilience

import "fmt"

// Breaker is a step-driven circuit breaker: closed → open → half-open →
// closed, with capped-exponential open windows and deterministic seeded
// jitter. Unlike the textbook wall-clock breaker it advances in discrete
// steps (the ingestion service's round barriers, a fleet's epochs), which
// is what makes a run that uses it replayable: every transition is a pure
// function of (config, observed fault counts, step index), never of
// scheduling or time.
//
// Usage per step: feed the step's tallies with Observe, then call Advance
// at the step barrier to evaluate the window and transition. While open,
// Allow reports false and the owner is expected to shed the protected
// work. After the open window expires the breaker turns half-open: the
// next step's traffic is the probe batch, and a fault-free probed step
// heals the breaker while any fault re-trips it with an escalated window.
//
// Breaker is not safe for concurrent use; owners drive it from their
// barrier (single goroutine) and keep their own synchronized tallies.
type Breaker struct {
	cfg BreakerConfig

	state    BreakerState
	openLeft int
	strikes  int // consecutive trips without an intervening heal

	trips, heals uint64

	// current observation window (since the last Advance)
	attempts, faults uint64
}

// BreakerState enumerates the circuit states.
type BreakerState int

const (
	// BreakerClosed: traffic flows, faults are tallied against TripFaults.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused for the remaining open window.
	BreakerOpen
	// BreakerHalfOpen: traffic flows as a probe batch; a clean probed
	// step heals, any fault re-trips with escalation.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ParseBreakerState inverts BreakerState.String.
func ParseBreakerState(s string) (BreakerState, error) {
	switch s {
	case "closed":
		return BreakerClosed, nil
	case "open":
		return BreakerOpen, nil
	case "half-open":
		return BreakerHalfOpen, nil
	}
	return BreakerClosed, fmt.Errorf("resilience: unknown breaker state %q", s)
}

// BreakerConfig shapes one breaker. The zero value gets defaults from
// withDefaults; a given config and fault history always produce the same
// transitions.
type BreakerConfig struct {
	// TripFaults is how many faults observed within one step trip the
	// breaker (default 8).
	TripFaults uint64
	// OpenSteps is the base open-window length in steps (default 2). The
	// k-th consecutive trip holds the breaker open for OpenSteps·2^(k-1)
	// steps, capped at MaxOpenSteps.
	OpenSteps int
	// MaxOpenSteps caps the escalated open window (default 16).
	MaxOpenSteps int
	// JitterSteps adds a deterministic, seeded extra delay in
	// [0, JitterSteps] steps to each open window, so a population of
	// breakers tripped by one incident does not re-probe in lockstep
	// (default 1; negative disables jitter).
	JitterSteps int
	// Seed drives the jitter stream; each trip ordinal draws its jitter
	// from (Seed, trip count) alone, so replays schedule probes
	// identically.
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.TripFaults == 0 {
		c.TripFaults = 8
	}
	if c.OpenSteps <= 0 {
		c.OpenSteps = 2
	}
	if c.MaxOpenSteps <= 0 {
		c.MaxOpenSteps = 16
	}
	if c.MaxOpenSteps < c.OpenSteps {
		c.MaxOpenSteps = c.OpenSteps
	}
	if c.JitterSteps == 0 {
		c.JitterSteps = 1
	}
	if c.JitterSteps < 0 {
		c.JitterSteps = 0
	}
	return c
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether the protected work should be admitted right now:
// true while closed or half-open (probe traffic), false while open.
func (b *Breaker) Allow() bool { return b.state != BreakerOpen }

// State returns the current circuit state.
func (b *Breaker) State() BreakerState { return b.state }

// Trips and Heals count lifetime transitions; Strikes counts consecutive
// trips since the last heal (it sizes the escalating open window).
func (b *Breaker) Trips() uint64 { return b.trips }

// Heals counts lifetime open→closed recoveries.
func (b *Breaker) Heals() uint64 { return b.heals }

// Strikes counts consecutive trips since the last heal.
func (b *Breaker) Strikes() int { return b.strikes }

// OpenLeft reports the steps remaining in an open window (0 unless open).
func (b *Breaker) OpenLeft() int { return b.openLeft }

// Observe adds one step's tallies to the current observation window:
// attempts admitted (probe traffic counts) and faults among them.
// Call any number of times between Advances; counts accumulate.
func (b *Breaker) Observe(attempts, faults uint64) {
	b.attempts += attempts
	b.faults += faults
}

// Advance is the step barrier: it evaluates the observation window
// accumulated since the previous Advance, transitions the breaker, and
// resets the window. It reports whether this step tripped (closed or
// half-open → open) or healed (half-open → closed) the breaker.
func (b *Breaker) Advance() (tripped, healed bool) {
	attempts, faults := b.attempts, b.faults
	b.attempts, b.faults = 0, 0
	switch b.state {
	case BreakerClosed:
		if faults >= b.cfg.TripFaults {
			b.trip()
			return true, false
		}
	case BreakerOpen:
		b.openLeft--
		if b.openLeft <= 0 {
			b.openLeft = 0
			b.state = BreakerHalfOpen
		}
	case BreakerHalfOpen:
		if faults > 0 {
			b.trip()
			return true, false
		}
		if attempts > 0 {
			// A probed, fault-free step: the tenant answered the probe
			// cleanly. A step with no traffic leaves the probe unanswered
			// and the breaker half-open.
			b.state = BreakerClosed
			b.strikes = 0
			b.heals++
			return false, true
		}
	}
	return false, false
}

// trip opens the breaker with the escalated, seeded-jittered window.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.strikes++
	b.trips++
	b.openLeft = StepBackoff(b.strikes, b.cfg.OpenSteps, b.cfg.MaxOpenSteps) + b.jitter()
}

// StepBackoff is the step-driven backoff rule: the k-th consecutive
// strike (1-based) waits base·2^(k-1) steps, capped at limit. Breaker
// open windows and the promotion pipeline's rebuild cool-down both use
// it.
func StepBackoff(k, base, limit int) int {
	n := base
	for i := 1; i < k && n < limit; i++ {
		n *= 2
	}
	return min(n, limit)
}

// jitter draws the deterministic extra open delay for the current trip
// ordinal: a splitmix64 hash of (Seed, trips) reduced to
// [0, JitterSteps]. No shared RNG state, so restoring a breaker from a
// snapshot replays the same probe schedule.
func (b *Breaker) jitter() int {
	if b.cfg.JitterSteps <= 0 {
		return 0
	}
	z := uint64(b.cfg.Seed)*0x9e3779b97f4a7c15 + b.trips*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(b.cfg.JitterSteps+1))
}

// BreakerSnap is a breaker's persistable state, taken at a step barrier
// (the observation window is empty there by construction, so it is not
// part of the snapshot).
type BreakerSnap struct {
	State    string
	OpenLeft int
	Strikes  int
	Trips    uint64
	Heals    uint64
}

// Snap captures the breaker for checkpointing. Call only at a step
// barrier (after Advance), when the observation window is empty.
func (b *Breaker) Snap() BreakerSnap {
	return BreakerSnap{
		State:    b.state.String(),
		OpenLeft: b.openLeft,
		Strikes:  b.strikes,
		Trips:    b.trips,
		Heals:    b.heals,
	}
}

// RestoreBreaker rebuilds a breaker from a snapshot under cfg. The
// jitter stream continues from the restored trip count, so a resumed
// breaker schedules future probes exactly as the uninterrupted one
// would have.
func RestoreBreaker(cfg BreakerConfig, s BreakerSnap) (*Breaker, error) {
	state, err := ParseBreakerState(s.State)
	if err != nil {
		return nil, err
	}
	if s.OpenLeft < 0 || s.Strikes < 0 {
		return nil, fmt.Errorf("resilience: negative breaker counters (open-left %d, strikes %d)",
			s.OpenLeft, s.Strikes)
	}
	if state == BreakerOpen && s.OpenLeft == 0 {
		return nil, fmt.Errorf("resilience: open breaker with no window left")
	}
	b := NewBreaker(cfg)
	b.state = state
	b.openLeft = s.OpenLeft
	b.strikes = s.Strikes
	b.trips = s.Trips
	b.heals = s.Heals
	return b, nil
}
