package resilience

import "testing"

// noJitter is the exact-arithmetic config the transition tests use.
func noJitter() BreakerConfig {
	return BreakerConfig{TripFaults: 4, OpenSteps: 2, MaxOpenSteps: 8, JitterSteps: -1}
}

// step feeds one step's tallies and advances.
func step(b *Breaker, attempts, faults uint64) (bool, bool) {
	b.Observe(attempts, faults)
	return b.Advance()
}

func TestBreakerTripOpenProbeHeal(t *testing.T) {
	b := NewBreaker(noJitter())
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("fresh breaker: state %v allow %v", b.State(), b.Allow())
	}

	// Below the threshold: stays closed.
	if tripped, _ := step(b, 10, 3); tripped || b.State() != BreakerClosed {
		t.Fatalf("sub-threshold faults tripped: state %v", b.State())
	}
	// At the threshold: trips open for OpenSteps.
	tripped, healed := step(b, 10, 4)
	if !tripped || healed || b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("threshold step: tripped=%v healed=%v state=%v", tripped, healed, b.State())
	}
	if b.Trips() != 1 || b.Strikes() != 1 || b.OpenLeft() != 2 {
		t.Fatalf("after trip: trips=%d strikes=%d openLeft=%d", b.Trips(), b.Strikes(), b.OpenLeft())
	}

	// Open window: two steps (attempts while open are shed by the owner,
	// so the window sees none).
	step(b, 0, 0)
	if b.State() != BreakerOpen {
		t.Fatalf("one step into a 2-step window: state %v", b.State())
	}
	step(b, 0, 0)
	if b.State() != BreakerHalfOpen || !b.Allow() {
		t.Fatalf("window expired: state %v allow %v", b.State(), b.Allow())
	}

	// Half-open with no traffic: the probe goes unanswered.
	step(b, 0, 0)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("idle half-open advanced to %v", b.State())
	}
	// A clean probed step heals.
	tripped, healed = step(b, 5, 0)
	if tripped || !healed || b.State() != BreakerClosed {
		t.Fatalf("clean probe: tripped=%v healed=%v state=%v", tripped, healed, b.State())
	}
	if b.Heals() != 1 || b.Strikes() != 0 {
		t.Fatalf("after heal: heals=%d strikes=%d", b.Heals(), b.Strikes())
	}
}

func TestBreakerRetripEscalatesCapped(t *testing.T) {
	b := NewBreaker(noJitter())
	// Open windows double per consecutive strike: 2, 4, 8, 8 (capped).
	want := []int{2, 4, 8, 8}
	for i, w := range want {
		// Trip (strike i+1). From half-open a single fault re-trips; from
		// closed it takes TripFaults.
		if b.State() == BreakerHalfOpen {
			step(b, 1, 1)
		} else {
			step(b, 4, 4)
		}
		if b.State() != BreakerOpen || b.OpenLeft() != w {
			t.Fatalf("strike %d: state %v openLeft %d, want open/%d", i+1, b.State(), b.OpenLeft(), w)
		}
		// Serve out the window.
		for b.State() == BreakerOpen {
			step(b, 0, 0)
		}
	}
	if b.Trips() != uint64(len(want)) {
		t.Fatalf("trips = %d, want %d", b.Trips(), len(want))
	}
	// A heal resets the escalation.
	step(b, 3, 0)
	step(b, 4, 4)
	if b.OpenLeft() != 2 {
		t.Fatalf("post-heal strike window %d, want the base 2", b.OpenLeft())
	}
}

// TestStepBackoffShape: the shared step-backoff rule doubles from the
// base per consecutive strike and holds at the cap.
func TestStepBackoffShape(t *testing.T) {
	for _, c := range []struct {
		base, limit int
		want        []int
	}{
		{1, 8, []int{1, 2, 4, 8, 8}},
		{2, 6, []int{2, 4, 6, 6}},
		{3, 3, []int{3, 3}},
	} {
		for i, w := range c.want {
			if got := StepBackoff(i+1, c.base, c.limit); got != w {
				t.Errorf("StepBackoff(%d, %d, %d) = %d, want %d", i+1, c.base, c.limit, got, w)
			}
		}
	}
}

// TestBreakerJitterDeterministic: the jittered open window is a pure
// function of (seed, trip ordinal) — two breakers with the same seed
// schedule identically, a different seed may not, and every draw stays
// within [0, JitterSteps].
func TestBreakerJitterDeterministic(t *testing.T) {
	cfg := BreakerConfig{TripFaults: 1, OpenSteps: 2, MaxOpenSteps: 2, JitterSteps: 3, Seed: 7}
	windows := func(cfg BreakerConfig) []int {
		b := NewBreaker(cfg)
		var out []int
		for trip := 0; trip < 6; trip++ {
			step(b, 1, 1)
			out = append(out, b.OpenLeft())
			for b.State() == BreakerOpen {
				step(b, 0, 0)
			}
		}
		return out
	}
	a, bb := windows(cfg), windows(cfg)
	varied := false
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("same seed, trip %d: window %d vs %d", i, a[i], bb[i])
		}
		if a[i] < 2 || a[i] > 2+3 {
			t.Fatalf("trip %d: window %d outside [2, 5]", i, a[i])
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("seeded jitter never varied the window across 6 trips")
	}
}

func TestBreakerSnapRestoreRoundTrip(t *testing.T) {
	cfg := BreakerConfig{TripFaults: 2, OpenSteps: 3, MaxOpenSteps: 6, JitterSteps: -1, Seed: 11}
	b := NewBreaker(cfg)
	step(b, 2, 2) // trip
	step(b, 0, 0) // one step into the window

	re, err := RestoreBreaker(cfg, b.Snap())
	if err != nil {
		t.Fatal(err)
	}
	// Drive both to heal in lockstep; every transition must agree.
	for i := 0; i < 10; i++ {
		s1, h1 := step(b, 1, 0)
		s2, h2 := step(re, 1, 0)
		if s1 != s2 || h1 != h2 || b.State() != re.State() || b.OpenLeft() != re.OpenLeft() {
			t.Fatalf("step %d diverged: (%v,%v,%v,%d) vs (%v,%v,%v,%d)",
				i, s1, h1, b.State(), b.OpenLeft(), s2, h2, re.State(), re.OpenLeft())
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("lockstep drive never healed: %v", b.State())
	}
}

func TestBreakerRestoreRejectsGarbage(t *testing.T) {
	cfg := BreakerConfig{}
	for _, snap := range []BreakerSnap{
		{State: "wedged"},
		{State: "open", OpenLeft: 0},
		{State: "closed", Strikes: -1},
		{State: "half-open", OpenLeft: -2},
	} {
		if _, err := RestoreBreaker(cfg, snap); err == nil {
			t.Errorf("RestoreBreaker(%+v) accepted garbage", snap)
		}
	}
}
