package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resilience"
)

// TestMeasureParallelEquivalence checks the measurement driver's core
// contract: every (benchmark, repetition) cell is a pure function of the
// runner config, so Measure, MeasureAll and MeasureRequest return
// byte-identical results for every worker count, including 0, and under
// an injector whose transient faults the redraw loop absorbs. Run under
// -race this also shakes out data races between cells.
func TestMeasureParallelEquivalence(t *testing.T) {
	k, prog := setup(t)
	type result struct {
		one Measurement
		all []Measurement
		req float64
	}
	measure := func(workers int, inject *resilience.Injector) result {
		t.Helper()
		r, err := NewRunner(k, prog, Nginx, 9)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.Workers = workers
		r.Inject = inject
		var res result
		if res.one, err = r.Measure("read"); err != nil {
			t.Fatalf("Measure(workers=%d): %v", workers, err)
		}
		if res.all, err = r.MeasureAll(); err != nil {
			t.Fatalf("MeasureAll(workers=%d): %v", workers, err)
		}
		if res.req, err = r.MeasureRequest(5); err != nil {
			t.Fatalf("MeasureRequest(workers=%d): %v", workers, err)
		}
		return res
	}
	serial := measure(1, nil)
	// Fewer faults than the 4 draw attempts, so redrawing absorbs them.
	inject := resilience.NewInjector(4321, resilience.Rates{Measure: 0.4})
	inject.SetMaxFaults(3)
	for _, c := range []struct {
		workers int
		inject  *resilience.Injector
	}{{0, nil}, {2, nil}, {4, nil}, {7, nil}, {3, inject}} {
		got := measure(c.workers, c.inject)
		name := fmt.Sprintf("%d workers (faults armed: %v)", c.workers, c.inject != nil)
		if got.one != serial.one {
			t.Errorf("Measure differs at %s: %+v vs %+v", name, got.one, serial.one)
		}
		if !reflect.DeepEqual(got.all, serial.all) {
			t.Errorf("MeasureAll differs at %s", name)
		}
		if got.req != serial.req {
			t.Errorf("MeasureRequest differs at %s: %v vs %v", name, got.req, serial.req)
		}
	}
	if inject.Total() == 0 {
		t.Error("no measurement fault fired; the retried case tested nothing")
	}
}

// TestMeasureRetryAbsorbsTransients: three consecutive transient
// faults fail the first three draws of the plan, the fourth draws
// clean, and the measurement equals the fault-free one.
func TestMeasureRetryAbsorbsTransients(t *testing.T) {
	k, prog := setup(t)
	measure := func(inject *resilience.Injector) (Measurement, error) {
		r, err := NewRunner(k, prog, Nginx, 9)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.Inject = inject
		return r.Measure("read")
	}
	clean, err := measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	inject := resilience.NewInjector(1, resilience.Rates{Measure: 1})
	inject.SetMaxFaults(3)
	got, err := measure(inject)
	if err != nil || got != clean {
		t.Fatalf("Measure after 3 faults = %+v, %v; want the fault-free %+v", got, err, clean)
	}
	if inject.Total() != 3 {
		t.Errorf("fired %d faults, want 3", inject.Total())
	}
}

// TestMeasureRetryExhaustsAttempts: under a measurement blackout the
// runner draws a plan's faults exactly 4 times and then returns the
// injected transient fault, which names its benchmark once.
func TestMeasureRetryExhaustsAttempts(t *testing.T) {
	k, prog := setup(t)
	r, err := NewRunner(k, prog, Nginx, 9)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.Inject = resilience.NewInjector(1, resilience.Rates{Measure: 1})
	_, err = r.Measure("read")
	if fe, ok := resilience.AsFault(err); !ok || fe.Kind != resilience.KindTransient || !fe.Injected || fe.Site != "read" {
		t.Fatalf("Measure under blackout = %v, want the injected transient fault at read", err)
	}
	if n := strings.Count(err.Error(), "read"); n != 1 {
		t.Errorf("Measure under blackout = %q, names read %d times, want once", err, n)
	}
	if got := r.Inject.Total(); got != 4 {
		t.Errorf("blackout drew %d faults, want 4", got)
	}
}
