package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFaultErrorChain(t *testing.T) {
	cause := errors.New("boom")
	var err error = Fault(PhaseExecute, KindTrap, "vfs_read", cause)
	if !errors.Is(err, cause) {
		t.Fatal("FaultError does not unwrap to its cause")
	}
	fe, ok := AsFault(fmt.Errorf("wrapped: %w", err))
	if !ok || fe.Kind != KindTrap || fe.Phase != PhaseExecute || fe.Site != "vfs_read" {
		t.Fatalf("AsFault through wrapping = %+v, %v", fe, ok)
	}
	if !IsKind(err, KindTrap) || IsKind(err, KindTransient) {
		t.Fatal("IsKind misclassifies")
	}
	msg := err.Error()
	for _, want := range []string{"execute", "trap", "vfs_read", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestIsAbort(t *testing.T) {
	for _, k := range []Kind{KindTrap, KindFuelExhausted, KindDepthExhausted} {
		if !IsAbort(Fault(PhaseExecute, k, "f", nil)) {
			t.Fatalf("IsAbort(%s) = false", k)
		}
	}
	if IsAbort(Fault(PhaseMeasure, KindTransient, "f", nil)) || IsAbort(errors.New("x")) {
		t.Fatal("IsAbort misclassifies non-aborts")
	}
}

func TestRecoverPanic(t *testing.T) {
	f := func() (err error) {
		defer RecoverPanic(&err, PhaseBuild, "Build")
		panic("producer bug")
	}
	err := f()
	fe, ok := AsFault(err)
	if !ok || fe.Kind != KindPanic || fe.Phase != PhaseBuild {
		t.Fatalf("recovered error = %v", err)
	}
	if !strings.Contains(err.Error(), "producer bug") {
		t.Fatalf("panic payload lost: %v", err)
	}
	// No panic: error stays nil.
	g := func() (err error) {
		defer RecoverPanic(&err, PhaseBuild, "Build")
		return nil
	}
	if err := g(); err != nil {
		t.Fatalf("RecoverPanic without panic set err = %v", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() (int, map[Kind]int) {
		in := NewInjector(42, Rates{Trap: 0.1, Depth: 0.05, Measure: 0.2})
		for i := 0; i < 1000; i++ {
			in.Trap("f")
			in.ExhaustDepth()
			in.MeasureFault("read")
		}
		return in.Total(), in.Counts()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Fatalf("same seed diverged: %d %v vs %d %v", t1, c1, t2, c2)
	}
	if t1 == 0 {
		t.Fatal("injector with positive rates never fired in 3000 draws")
	}
	if c1[KindTrap] == 0 || c1[KindTransient] == 0 {
		t.Fatalf("expected trap and transient fires, got %v", c1)
	}
}

func TestInjectorNilAndZeroRatesSafe(t *testing.T) {
	var in *Injector
	if in.Trap("f") != nil || in.ExhaustFuel() || in.ExhaustDepth() || in.MeasureFault("b") != nil {
		t.Fatal("nil injector injected a fault")
	}
	if got, kinds := in.MangleProfile([]byte("x")); string(got) != "x" || kinds != nil {
		t.Fatal("nil injector mangled data")
	}
	in.SetMaxFaults(3) // must not crash
	if in.Total() != 0 || in.Counts() != nil || in.Summary() != "none" {
		t.Fatal("nil injector reports faults")
	}
	zero := NewInjector(1, Rates{})
	for i := 0; i < 100; i++ {
		if zero.Trap("f") != nil || zero.ExhaustFuel() {
			t.Fatal("zero-rate injector fired")
		}
	}
}

func TestInjectorMaxFaults(t *testing.T) {
	in := NewInjector(7, Rates{Trap: 1})
	in.SetMaxFaults(3)
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Trap("f") != nil {
			fired++
		}
	}
	if fired != 3 || in.Total() != 3 {
		t.Fatalf("MaxFaults(3): fired %d, total %d", fired, in.Total())
	}
}

func TestMangleProfileTruncates(t *testing.T) {
	in := NewInjector(5, Rates{Truncate: 1})
	data := []byte(strings.Repeat("record line\n", 50))
	out, kinds := in.MangleProfile(data)
	if len(kinds) != 1 || kinds[0] != KindTruncated {
		t.Fatalf("kinds = %v", kinds)
	}
	if len(out) >= len(data) || len(out) < len(data)/4 {
		t.Fatalf("truncated to %d of %d bytes", len(out), len(data))
	}
}

func TestMangleProfileCorrupts(t *testing.T) {
	in := NewInjector(5, Rates{Corrupt: 1})
	data := []byte("magic header\nrec a\nrec b\nrec c\n")
	out, kinds := in.MangleProfile(data)
	if len(kinds) != 1 || kinds[0] != KindCorrupt {
		t.Fatalf("kinds = %v", kinds)
	}
	if bytes.Equal(out, data) {
		t.Fatal("corrupt fault left data unchanged")
	}
	if !bytes.HasPrefix(out, []byte("magic header\n")) {
		t.Fatal("corruption touched the header line")
	}
}
