// Package workload drives the synthetic kernel the way the paper's
// benchmarks drive Linux: it supplies each indirect call site's runtime
// target distribution (what file types, socket families and handlers a
// workload actually exercises), defines the operation mixes of LMBench
// and of the application workloads (Apache, Nginx, DBench), collects
// profiles, and measures per-operation latency with the paper's
// methodology (repeated rounds, median).
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpu"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// Flavor identifies a workload.
type Flavor int

// The workloads of the evaluation.
const (
	LMBench Flavor = iota
	Apache
	Nginx
	DBench
)

func (f Flavor) String() string {
	switch f {
	case LMBench:
		return "lmbench"
	case Apache:
		return "apache"
	case Nginx:
		return "nginx"
	case DBench:
		return "dbench"
	}
	return fmt.Sprintf("flavor(%d)", int(f))
}

// TargetWeights returns the runtime target distribution a flavor induces
// at one indirect call site. LMBench uses a Zipf-like ranking in the
// site's natural target order; application flavors rotate which target is
// hot at multi-target sites, which is what makes an Apache-trained
// profile only partially match LMBench's hot candidates (§8.4).
func TargetWeights(site kernel.Site, flavor Flavor) []uint64 {
	nt := len(site.Targets)
	rot := 0
	if flavor != LMBench && nt > 1 {
		rot = (int(site.ID)*7 + int(flavor)*3) % nt
	}
	w := make([]uint64, nt)
	for i := 0; i < nt; i++ {
		rank := (i + rot) % nt
		w[i] = uint64(1000/((rank+1)*(rank+1))) + 1
	}
	return w
}

// BuildResolver installs the flavor's distribution for every executable
// site of the kernel against the given compiled program.
func BuildResolver(k *kernel.Kernel, prog *interp.Program, flavor Flavor) (*interp.Resolver, error) {
	res := interp.NewResolverSized(prog.SiteBound())
	for _, site := range k.Sites {
		weights := TargetWeights(site, flavor)
		idx := make([]int, len(site.Targets))
		for i, t := range site.Targets {
			fi := prog.FuncIndex(t)
			if fi < 0 {
				return nil, fmt.Errorf("workload: site %d target %q not in program", site.ID, t)
			}
			idx[i] = fi
		}
		d, err := interp.NewDist(idx, weights)
		if err != nil {
			return nil, fmt.Errorf("workload: site %d: %v", site.ID, err)
		}
		res.Set(site.ID, d)
	}
	return res, nil
}

// Mix returns the relative operation frequency per benchmark for a
// flavor's profiling/driving run. LMBench exercises every microbenchmark
// equally; the application mixes are web-server- and file-server-shaped
// (no fork family for Apache/Nginx event loops — "monotonic" relative to
// LMBench).
func Mix(flavor Flavor) map[string]int {
	switch flavor {
	case Apache:
		return map[string]int{
			"read": 30, "write": 25, "open": 8, "stat": 10, "fstat": 5,
			"af_unix": 5, "select_tcp": 10, "tcp": 20, "tcp_conn": 5,
			"mmap": 3, "sig_dispatch": 2, "pipe": 3, "page_fault": 2,
		}
	case Nginx:
		return map[string]int{
			"read": 25, "write": 30, "open": 10, "stat": 15,
			"select_tcp": 15, "tcp": 25, "tcp_conn": 8, "af_unix": 4,
		}
	case DBench:
		return map[string]int{
			"read": 30, "write": 30, "open": 15, "stat": 15, "fstat": 10,
			"mmap": 5, "page_fault": 3, "pipe": 2,
		}
	default:
		m := make(map[string]int, len(kernel.LMBenchSpecs))
		for _, s := range kernel.LMBenchSpecs {
			m[s.Name] = 1
		}
		return m
	}
}

// Request returns the syscall sequence one application-level request
// (HTTP request, SMB operation batch) performs, for the macrobenchmarks
// of Table 7.
func Request(flavor Flavor) []string {
	switch flavor {
	case Nginx:
		return []string{"select_tcp", "tcp", "stat", "open", "read", "write", "tcp"}
	case Apache:
		return []string{"select_tcp", "tcp", "stat", "open", "read", "write", "write", "tcp", "sig_dispatch"}
	case DBench:
		return []string{"open", "stat", "write", "write", "read", "read", "fstat", "pipe"}
	default:
		return nil
	}
}

// UserShare is the fraction of one request's baseline cycles spent in
// userspace (constant across kernel configurations). Lightweight Nginx
// is the most kernel-bound; Apache's MPM event machinery does more
// userspace work per request.
func UserShare(flavor Flavor) float64 {
	switch flavor {
	case Nginx:
		return 0.28
	case Apache:
		return 0.57
	case DBench:
		return 0.44
	default:
		return 0
	}
}

// Runner measures and profiles a compiled kernel under a flavor.
type Runner struct {
	Kernel *kernel.Kernel
	Prog   *interp.Program
	Res    *interp.Resolver
	CPU    *cpu.Model
	Flavor Flavor
	Seed   int64

	// RefillRSB enables RSB stuffing at every syscall entry during
	// measurement (the §6.4 alternative to return retpolines).
	RefillRSB bool

	// Inject, when non-nil, threads chaos faults through the runner:
	// profiling machines draw execution faults from it (an abort
	// degrades to a partial profile), and each measurement repetition
	// draws one transient failure before any cell runs (absorbed by
	// Retry). Measurement machines themselves run injector-free, so a
	// retried measurement is deterministic.
	Inject *resilience.Injector
	// Retry bounds the backoff loop that absorbs transient measurement
	// faults; the zero value means resilience.DefaultRetry().
	Retry resilience.RetryPolicy

	// Reps is the number of measurement rounds (the artifact uses 5,
	// reporting medians).
	Reps int
	// RepCycles is the per-round target cycle volume per benchmark,
	// which determines how many operations each round executes.
	RepCycles int64

	// Workers bounds the pool the measurement cells run on (parallel.go).
	// Below 2 they run on the calling goroutine. Results are identical
	// for every value.
	Workers int
	// NewHook, when set, builds the ICallHook of each measurement
	// repetition's machine. Every repetition gets a fresh one, so a
	// stateful hook such as the JumpSwitches runtime learns within one
	// repetition only.
	NewHook func() interp.ICallHook

	// Engine selects the execution tier for every machine this runner
	// builds: the zero value is the threaded-code tier, EngineInterp the
	// per-event reference loop. The tier is cycle-exact, so results are
	// identical for either setting; only wall-clock changes.
	Engine interp.Engine
}

// NewRunner builds a Runner with a fresh CPU model and the flavor's
// resolver.
func NewRunner(k *kernel.Kernel, prog *interp.Program, flavor Flavor, seed int64) (*Runner, error) {
	res, err := BuildResolver(k, prog, flavor)
	if err != nil {
		return nil, err
	}
	return &Runner{
		Kernel: k,
		Prog:   prog,
		Res:    res,
		CPU:    cpu.New(cpu.DefaultParams()),
		Flavor: flavor,
		Seed:   seed,
		// Seed the backoff jitter per runner so concurrent collectors
		// hitting the same transient fault desynchronize their retries.
		Retry:     resilience.RetryPolicy{Seed: seed},
		Reps:      5,
		RepCycles: 3_000_000,
	}, nil
}

// Measurement is the result of measuring one benchmark.
type Measurement struct {
	Bench  string
	Cycles float64 // per operation, median of rounds
	Micros float64
}

// Measure runs one LMBench benchmark and returns the median-of-rounds
// per-operation latency. Injected transient faults are drawn and retried
// before any repetition runs (see Inject), so a retried measurement
// returns exactly the fault-free number.
func (r *Runner) Measure(bench string) (Measurement, error) {
	ms, err := r.measureBenches([]string{bench})
	if err != nil {
		return Measurement{}, err
	}
	return ms[0], nil
}

// MeasureAll measures every LMBench benchmark in spec order.
func (r *Runner) MeasureAll() ([]Measurement, error) {
	benches := make([]string, len(r.Kernel.Specs))
	for i, s := range r.Kernel.Specs {
		benches[i] = s.Name
	}
	return r.measureBenches(benches)
}

// measureBenches measures the named benchmarks in one fan-out.
func (r *Runner) measureBenches(benches []string) ([]Measurement, error) {
	plans := make([]plan, len(benches))
	for i, b := range benches {
		var err error
		if plans[i], err = r.benchPlan(b); err != nil {
			return nil, err
		}
	}
	meds, err := r.run(plans)
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, len(benches))
	for i, b := range benches {
		out[i] = Measurement{Bench: b, Cycles: meds[i], Micros: meds[i] / (r.CPU.P.FreqGHz * 1e3)}
	}
	return out, nil
}

// Profile executes the flavor's operation mix with recording enabled and
// returns the aggregated profile. opsScale multiplies the mix weights
// (an opsScale of 20 runs 20 operations per unit of mix weight). The
// machine carries a recorder and no CPU model, so by default it records
// on the compiled tier's model-free chain, injector or not; both
// engines yield the same profile bytes.
//
// If a run aborts — an execution trap or fuel/depth exhaustion,
// organic or injected — Profile degrades gracefully: it returns the
// partial profile collected up to the abort alongside the abort error,
// so callers can still merge and use what was gathered. Only when even
// lifting the partial counts fails is the profile nil.
func (r *Runner) Profile(opsScale int) (*prof.Profile, error) {
	if opsScale <= 0 {
		opsScale = 10
	}
	mc := interp.NewMachine(r.Prog, r.Seed^0x5eed)
	mc.Res = r.Res
	mc.Inject = r.Inject
	mc.Rec = interp.NewRecorder(r.Prog)
	mc.Engine = r.Engine
	mix := Mix(r.Flavor)
	benches := make([]string, 0, len(mix))
	for b := range mix {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	specCycles := make(map[string]int64, len(r.Kernel.Specs))
	for _, sp := range r.Kernel.Specs {
		specCycles[sp.Name] = sp.Cycles
	}
	var ops uint64
	for _, b := range benches {
		entry, ok := r.Kernel.Entries[b]
		if !ok {
			return nil, fmt.Errorf("workload: mix references unknown benchmark %q", b)
		}
		n := mix[b] * opsScale
		if r.Flavor == LMBench {
			// LMBench gives every microbenchmark an equal time slice,
			// so cheap operations execute far more often than forks:
			// profile operation counts are inverse to latency.
			if c := specCycles[b]; c > 0 {
				n = int(int64(mix[b]*opsScale) * 120_000 / c)
				if n < 2 {
					n = 2
				}
			}
		}
		for i := 0; i < n; i++ {
			if err := mc.Run(entry); err != nil {
				if resilience.IsAbort(err) {
					// Salvage the counts recorded before the abort.
					mc.Rec.AddOps(ops)
					partial, perr := mc.Rec.Profile()
					if perr != nil {
						return nil, fmt.Errorf("workload: profiling aborted (%v) and salvage failed: %v", err, perr)
					}
					return partial, fmt.Errorf("workload: profiling aborted after %d ops: %w", ops, err)
				}
				return nil, err
			}
			ops++
		}
	}
	mc.Rec.AddOps(ops)
	return mc.Rec.Profile()
}

// MeasureRequest measures the cycles one application request takes in
// the kernel (median of rounds). The caller adds the constant userspace
// cycles when computing throughput. Transient faults are absorbed like
// Measure's.
func (r *Runner) MeasureRequest(reps int) (float64, error) {
	script := Request(r.Flavor)
	if script == nil {
		return 0, fmt.Errorf("workload: flavor %v has no request script", r.Flavor)
	}
	if reps <= 0 {
		reps = 5
	}
	entries := make([]string, len(script))
	for i, b := range script {
		entries[i] = r.Kernel.Entries[b]
	}
	meds, err := r.run([]plan{{seed: r.Seed + 977, key: "request:" + r.Flavor.String(), script: entries, warm: 10, timed: 30, reps: reps}})
	if err != nil {
		return 0, err
	}
	return meds[0], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Geomean returns the geometric mean of (1+x) minus one over the given
// relative overheads — the aggregation the paper's tables use. Inputs
// are fractions (0.10 for 10%).
//
// The result is always defined: an empty (or nil) slice yields 0, and
// non-finite inputs (NaN, ±Inf — e.g. an overhead computed against a
// zero or failed baseline measurement) are skipped rather than allowed
// to poison the whole aggregate. If every input is non-finite the
// result is 0. Callers that must not lose that degradation silently
// (sweeps over hundreds of cells, where a flattened curve is
// indistinguishable from a real one) should use GeomeanCounted and
// check the returned stats.
func Geomean(overheads []float64) float64 {
	g, _ := GeomeanCounted(overheads)
	return g
}

// GeomeanStats reports how many Geomean inputs were silently repaired:
// Skipped counts non-finite entries (NaN, ±Inf) dropped from the
// aggregate, Clamped counts factors below the 0.01 floor (overheads
// under -99%) raised to it. Either being nonzero means the geomean no
// longer faithfully summarizes its inputs.
type GeomeanStats struct {
	Skipped int
	Clamped int
}

// Degenerate reports whether any input was skipped or clamped.
func (s GeomeanStats) Degenerate() bool { return s.Skipped > 0 || s.Clamped > 0 }

func (s GeomeanStats) String() string {
	return fmt.Sprintf("%d non-finite skipped, %d clamped to the 0.01 factor floor", s.Skipped, s.Clamped)
}

// GeomeanCounted is Geomean plus an account of the entries it skipped
// (non-finite) or clamped (factor floor), so aggregation-layer
// degradation is observable instead of silently flattening curves.
func GeomeanCounted(overheads []float64) (float64, GeomeanStats) {
	var stats GeomeanStats
	prod, n := 1.0, 0
	for _, o := range overheads {
		f := 1 + o
		if math.IsNaN(f) || math.IsInf(f, 0) {
			stats.Skipped++
			continue
		}
		if f < 0.01 {
			f = 0.01
			stats.Clamped++
		}
		prod *= f
		n++
	}
	if n == 0 {
		return 0, stats
	}
	return math.Pow(prod, 1/float64(n)) - 1, stats
}
