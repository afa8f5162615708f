package resilience

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
)

// Rates configures per-event fault probabilities for an Injector. A zero
// rate disables that fault kind. Each rate is evaluated against a
// different event stream, noted per field.
type Rates struct {
	// Trap is the probability, per interpreted function entry, of an
	// injected interpreter trap.
	Trap float64
	// Fuel is the probability, per executed block, of injected step-budget
	// exhaustion. Block counts are large; meaningful rates are tiny
	// (1e-6 .. 1e-4).
	Fuel float64
	// Depth is the probability, per interpreted call, of injected
	// call-depth exhaustion.
	Depth float64
	// Truncate is the probability, per serialized profile, of a torn
	// write that drops the tail of the output.
	Truncate float64
	// Corrupt is the probability, per serialized profile, of one record
	// line being mangled in place.
	Corrupt float64
	// Measure is the probability, per measurement round, of a transient
	// (retryable) measurement failure.
	Measure float64
}

// UniformRates sets every event-scoped rate to r and the per-block Fuel
// rate to r/1000, a rough normalization of the very different event
// frequencies.
func UniformRates(r float64) Rates {
	return Rates{Trap: r, Fuel: r / 1000, Depth: r, Truncate: r, Corrupt: r, Measure: r}
}

// Injector is a deterministic, seeded fault source. The same seed, rates
// and event sequence reproduce the same faults, so chaos runs are exactly
// replayable. All methods are safe for concurrent use and safe on a nil
// receiver (a nil *Injector never injects).
type Injector struct {
	mu    sync.Mutex
	rates Rates
	rng   *rand.Rand
	max   int // 0 = unlimited
	fired map[Kind]int
	total int
}

// NewInjector returns an Injector drawing from a deterministic stream
// seeded with seed.
func NewInjector(seed int64, rates Rates) *Injector {
	return &Injector{
		rates: rates,
		rng:   rand.New(rand.NewSource(seed)),
		fired: make(map[Kind]int),
	}
}

// SetMaxFaults caps the total number of faults the injector will ever
// fire (0 = unlimited). Chaos tests use it to bound disruption so that
// retries are guaranteed to converge.
func (in *Injector) SetMaxFaults(n int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.max = n
	in.mu.Unlock()
}

// trip draws one event against the rate for kind, recording the fault
// when it fires.
func (in *Injector) trip(kind Kind) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var rate float64
	switch kind {
	case KindTrap:
		rate = in.rates.Trap
	case KindFuelExhausted:
		rate = in.rates.Fuel
	case KindDepthExhausted:
		rate = in.rates.Depth
	case KindTruncated:
		rate = in.rates.Truncate
	case KindCorrupt:
		rate = in.rates.Corrupt
	case KindTransient:
		rate = in.rates.Measure
	}
	if rate <= 0 {
		return false
	}
	if in.max > 0 && in.total >= in.max {
		return false
	}
	if in.rng.Float64() >= rate {
		return false
	}
	in.fired[kind]++
	in.total++
	return true
}

// intn draws a bounded random int from the injector's stream.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Trap returns an injected interpreter trap for the named site, or nil.
func (in *Injector) Trap(site string) error {
	if in == nil || !in.trip(KindTrap) {
		return nil
	}
	return &FaultError{
		Phase: PhaseExecute, Kind: KindTrap, Site: site, Injected: true,
		Err: errors.New("injected interpreter trap"),
	}
}

// ExhaustFuel reports whether an injected step-budget exhaustion fires
// for the current block.
func (in *Injector) ExhaustFuel() bool { return in != nil && in.trip(KindFuelExhausted) }

// ExhaustDepth reports whether an injected depth exhaustion fires for the
// current call.
func (in *Injector) ExhaustDepth() bool {
	return in != nil && in.trip(KindDepthExhausted)
}

// MeasureFault returns an injected transient measurement failure for the
// named benchmark, or nil.
func (in *Injector) MeasureFault(bench string) error {
	if in == nil || !in.trip(KindTransient) {
		return nil
	}
	return &FaultError{
		Phase: PhaseMeasure, Kind: KindTransient, Site: bench, Injected: true,
		Err: errors.New("injected transient measurement failure"),
	}
}

// MangleProfile applies serialization faults to an encoded profile: a
// torn write that drops the tail (Truncate) and/or one record line
// scrambled in place (Corrupt). It returns the (possibly) damaged bytes
// and the kinds applied; with no fault it returns data unchanged.
func (in *Injector) MangleProfile(data []byte) ([]byte, []Kind) {
	if in == nil || len(data) == 0 {
		return data, nil
	}
	var applied []Kind
	out := data
	if in.trip(KindCorrupt) {
		out = corruptRecord(append([]byte(nil), out...), in.intn)
		applied = append(applied, KindCorrupt)
	}
	if in.trip(KindTruncated) {
		// Keep at least a quarter so there is something to salvage, and
		// always cut strictly inside the data.
		lo := len(out) / 4
		cut := lo + in.intn(len(out)-lo)
		out = out[:cut]
		applied = append(applied, KindTruncated)
	}
	return out, applied
}

// corruptRecord scrambles one non-header line of a line-oriented blob.
func corruptRecord(data []byte, intn func(int) int) []byte {
	lines := bytes.Split(data, []byte("\n"))
	// Candidate lines: skip the magic header (index 0) and empty tails.
	var cands []int
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) > 0 {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return data
	}
	i := cands[intn(len(cands))]
	if intn(2) == 0 {
		// Garbage prefix: the record keyword is destroyed.
		lines[i] = []byte("\x7fcorrupt\x7f " + string(lines[i]))
	} else {
		// Torn mid-line: keep a prefix that no longer parses.
		cut := 1 + intn(len(lines[i]))
		lines[i] = append(lines[i][:cut:cut], []byte(" \x7f")...)
	}
	return bytes.Join(lines, []byte("\n"))
}

// Counts returns how many faults of each kind have fired.
func (in *Injector) Counts() map[Kind]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.fired))
	for k, n := range in.fired {
		out[k] = n
	}
	return out
}

// Total returns the total number of faults fired.
func (in *Injector) Total() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Summary renders fired-fault counts as "kind=n kind=n", sorted by kind,
// or "none".
func (in *Injector) Summary() string {
	counts := in.Counts()
	if len(counts) == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var sb bytes.Buffer
	for i, k := range kinds {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(itoa(counts[Kind(k)]))
	}
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
