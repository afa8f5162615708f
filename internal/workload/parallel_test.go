package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestMeasureParallelEquivalence checks the measurement driver's core
// contract: every (benchmark, repetition) cell is a pure function of the
// runner config, so Measure, MeasureAll and MeasureRequest return
// byte-identical results for every worker count, including 0, and under
// an injector whose transient faults retry absorbs. Run under -race this
// also shakes out data races between cells.
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
		r.Retry.Sleep = func(time.Duration) {}
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
	// Fewer faults than DefaultRetry's 4 attempts, so retry absorbs them.
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
