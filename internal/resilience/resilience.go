// Package resilience is the fault model of the reproduction: structured
// fault errors shared by the interpreter, workload runner, profiler and
// build surface; a deterministic seeded fault injector for chaos testing
// the profile→build→measure pipeline; and a step-driven circuit breaker
// whose capped doubling (StepBackoff) also sizes the promotion
// pipeline's rebuild cool-down.
//
// The paper's pipeline feeds profiling runs of a live kernel into the
// production build. Real profiling runs crash, get truncated, and emit
// partial or corrupt profiles; this package gives every layer of the
// reproduction a common vocabulary for those failures so the pipeline can
// degrade gracefully (salvage a partial profile, skip a corrupt record,
// retry a transient measurement) instead of aborting end-to-end.
package resilience

import (
	"errors"
	"fmt"
	"strings"
)

// Phase identifies the pipeline stage a fault belongs to.
type Phase string

// The pipeline stages.
const (
	PhaseProfile   Phase = "profile"   // profiling run (collection)
	PhaseBuild     Phase = "build"     // optimization + hardening + compile
	PhaseMeasure   Phase = "measure"   // latency / cycle measurement
	PhaseExecute   Phase = "execute"   // inside the interpreter
	PhaseSerialize Phase = "serialize" // profile (de)serialization
	PhaseFleet     Phase = "fleet"     // continuous fleet profiling / aggregation
	PhasePromote   Phase = "promote"   // candidate-image validation / canary promotion
	PhaseIngest    Phase = "ingest"    // multi-tenant profile-delta ingestion
)

// Kind classifies a fault.
type Kind string

// The fault kinds the pipeline distinguishes.
const (
	// KindTrap is an interpreter trap: broken control flow, an
	// unresolved indirect target, a call into a missing function.
	KindTrap Kind = "trap"
	// KindFuelExhausted is the interpreter's step budget running out.
	KindFuelExhausted Kind = "fuel-exhausted"
	// KindDepthExhausted is the interpreter's call-depth bound tripping.
	KindDepthExhausted Kind = "depth-exhausted"
	// KindTruncated is a torn profile write (the tail is missing).
	KindTruncated Kind = "truncated"
	// KindCorrupt is a mangled profile record.
	KindCorrupt Kind = "corrupt"
	// KindTransient is a retryable measurement failure.
	KindTransient Kind = "transient"
	// KindPanic is a panic recovered at the public API surface.
	KindPanic Kind = "panic"
	// KindConfig is an invalid configuration rejected up front.
	KindConfig Kind = "config"
	// KindEmptyAggregate is a fleet profiling run whose every collector
	// failed before contributing anything: the aggregate is empty and
	// there is nothing to degrade to. Partial collector failures are NOT
	// this kind — they degrade to a partial aggregate without error.
	KindEmptyAggregate Kind = "empty-aggregate"
	// KindDivergence is a candidate image whose observable behaviour
	// (trap status or profile-visible indirect-call targets) differs from
	// the reference image over the validation corpus: the optimization
	// passes changed semantics, so the candidate must not be promoted.
	KindDivergence Kind = "divergence"
	// KindUnhardenedSite is a surviving indirect branch that does not
	// carry the configured defense: an optimization or a miscompile
	// dropped a hardening site, violating PIBE's safety invariant.
	KindUnhardenedSite Kind = "unhardened-site"
	// KindOverload is a bounded ingestion queue refusing work: the
	// service is saturated and configured to shed rather than block, so
	// the delta batch was dropped instead of growing the queue without
	// bound. The producer may retry after backing off; the aggregate
	// degrades to an under-count that the overload counters quantify.
	KindOverload Kind = "overload"
	// KindPoison is a malformed profile delta rejected by ingestion
	// sanitation before it could reach any aggregate: zero or overflowing
	// counts, an inconsistent value profile, empty function or target
	// names, or a site outside the configured site universe. Poison never
	// merges, so a quarantined-and-dropped poison stream leaves the
	// global aggregate byte-identical to a run where it never arrived.
	KindPoison Kind = "poison"
	// KindQuarantined is work refused because its tenant's circuit
	// breaker is open: the tenant's recent fault rate tripped the bulkhead
	// and its submissions are counted-and-dropped until the breaker's
	// half-open probe window heals it.
	KindQuarantined Kind = "quarantined"
	// KindClosed is a request against a service that has already been
	// shut down: the work was refused with a structured error rather than
	// panicking on a closed internal queue.
	KindClosed Kind = "closed"
)

// FaultError is the structured error type used at the interp/workload/
// build boundaries in place of stringly errors. It records where in the
// pipeline the fault occurred (Phase), what went wrong (Kind), the site —
// a function, benchmark or record name — and whether it was injected by a
// chaos Injector rather than organic.
type FaultError struct {
	Phase    Phase
	Kind     Kind
	Site     string
	Injected bool
	Err      error
}

func (e *FaultError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s", e.Phase, e.Kind)
	if e.Site != "" {
		fmt.Fprintf(&sb, " at %s", e.Site)
	}
	if e.Injected {
		sb.WriteString(" [injected]")
	}
	if e.Err != nil {
		fmt.Fprintf(&sb, ": %v", e.Err)
	}
	return sb.String()
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *FaultError) Unwrap() error { return e.Err }

// Fault builds a FaultError wrapping err.
func Fault(phase Phase, kind Kind, site string, err error) *FaultError {
	return &FaultError{Phase: phase, Kind: kind, Site: site, Err: err}
}

// Faultf builds a FaultError with a formatted cause.
func Faultf(phase Phase, kind Kind, site, format string, args ...any) *FaultError {
	return &FaultError{Phase: phase, Kind: kind, Site: site, Err: fmt.Errorf(format, args...)}
}

// AsFault extracts the FaultError in err's chain, if any.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// IsKind reports whether err wraps a FaultError of the given kind.
func IsKind(err error, k Kind) bool {
	fe, ok := AsFault(err)
	return ok && fe.Kind == k
}

// IsAbort reports whether err is an execution abort (trap or resource
// exhaustion) after which a partially collected result is still usable.
func IsAbort(err error) bool {
	fe, ok := AsFault(err)
	if !ok {
		return false
	}
	switch fe.Kind {
	case KindTrap, KindFuelExhausted, KindDepthExhausted:
		return true
	}
	return false
}

// RecoverPanic converts a panic into a *FaultError assigned through errp.
// It is deferred at the public API surface so producer bugs (and injected
// chaos) surface as structured errors rather than crashing the host:
//
//	func (s *System) Build(cfg BuildConfig) (img *Image, err error) {
//	    defer resilience.RecoverPanic(&err, resilience.PhaseBuild, "Build")
//	    ...
//	}
//
// An existing error is not overwritten unless a panic actually occurred.
func RecoverPanic(errp *error, phase Phase, site string) {
	if r := recover(); r != nil {
		*errp = &FaultError{
			Phase: phase, Kind: KindPanic, Site: site,
			Err: fmt.Errorf("recovered panic: %v", r),
		}
	}
}
