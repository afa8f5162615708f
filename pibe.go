// Package pibe is a reproduction, in pure Go, of "PIBE: Practical Kernel
// Control-Flow Hardening with Profile-Guided Indirect Branch Elimination"
// (Duta, Giuffrida, Bos, van der Kouwe — ASPLOS 2021).
//
// PIBE makes comprehensive transient control-flow defenses (retpolines,
// return retpolines, LVI-CFI) affordable by first *eliminating* the
// hottest indirect branches — indirect calls via profile-guided indirect
// call promotion, returns via a security-tailored greedy inliner — and
// only then hardening whatever indirect branches remain.
//
// The original system is an LLVM pass pipeline applied to Linux; this
// package reproduces it against a synthetic kernel and a
// microarchitectural timing simulator (see DESIGN.md for the substitution
// map). The pipeline is:
//
//	sys, _ := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: 1})
//	profile, _ := sys.Profile(pibe.LMBench, 10)     // profiling binary run
//	img, _ := sys.Build(pibe.BuildConfig{           // production binary
//	    Profile:  profile,
//	    Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999},
//	    Defenses: pibe.AllDefenses,
//	})
//	lat, _ := img.MeasureLMBench(pibe.LMBench)
package pibe

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/diffcheck"
	"repro/internal/fleet"
	"repro/internal/harden"
	"repro/internal/icp"
	"repro/internal/ingest"
	"repro/internal/inline"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/jumpswitch"
	"repro/internal/kernel"
	"repro/internal/llvminline"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Workload selects which workload drives profiling or measurement.
type Workload = workload.Flavor

// The available workloads.
const (
	LMBench = workload.LMBench
	Apache  = workload.Apache
	Nginx   = workload.Nginx
	DBench  = workload.DBench
)

// Defenses selects the mitigations to enforce: the transient defenses
// (retpolines, return retpolines, LVI-CFI), the cheap non-transient
// defenses of Table 1, the hardware-assisted backends and the RSB
// refill. It is the hardening pass's configuration, so a build applies
// it as given; String names it the way the paper's tables do.
type Defenses = harden.Config

// AllDefenses enables the comprehensive configuration of Table 5.
var AllDefenses = Defenses{Retpolines: true, RetRetpolines: true, LVICFI: true}

// KernelConfig parameterizes the synthetic kernel (see internal/kernel).
type KernelConfig struct {
	// Seed makes generation deterministic; equal seeds yield identical
	// kernels.
	Seed int64
	// ColdFuncs scales the never-executed driver corpus; zero means the
	// default (2200).
	ColdFuncs int
	// HelperLayers adds that many layers of intermediate helper
	// functions between the subsystem helpers and the leaf primitives,
	// deepening hot call chains and the static census; zero keeps the
	// default calibrated kernel.
	HelperLayers int
}

// OptimizeConfig selects PIBE's profile-guided transformations.
// The zero value applies none (the paper's "no optimization" columns).
type OptimizeConfig struct {
	// ICPBudget is the indirect-call-promotion budget as a fraction of
	// cumulative indirect-branch weight (0.99 for "99%"); zero disables
	// promotion.
	ICPBudget float64
	// InlineBudget is the inlining budget over cumulative direct-call
	// weight; zero disables inlining.
	InlineBudget float64
	// LaxBudget disables the size heuristics (Rules 2 and 3) for sites
	// within this budget — the paper's "lax heuristics" configuration.
	LaxBudget float64
	// MaxICPTargets caps promoted targets per site (0 = unbounded,
	// PIBE's default; set to 1 or 2 for the classic-ICP ablation).
	MaxICPTargets int
	// UseLLVMInliner replaces PIBE's greedy hottest-first inliner with
	// the LLVM-default bottom-up baseline of §8.4.
	UseLLVMInliner bool
	// DisableRule2 / DisableRule3 turn off the respective size
	// heuristics entirely (ablations).
	DisableRule2 bool
	DisableRule3 bool
	// DisableInheritance turns off the constant-ratio heuristic for
	// inherited call sites (ablation D5).
	DisableInheritance bool
}

func (o OptimizeConfig) any() bool { return o.ICPBudget > 0 || o.InlineBudget > 0 }

// validate rejects configurations that would silently misbehave: NaN,
// negative or >1 budgets, and a negative target cap.
func (o OptimizeConfig) validate() error {
	budgets := []struct {
		name string
		v    float64
	}{
		{"ICPBudget", o.ICPBudget},
		{"InlineBudget", o.InlineBudget},
		{"LaxBudget", o.LaxBudget},
	}
	for _, b := range budgets {
		if math.IsNaN(b.v) {
			return resilience.Faultf(resilience.PhaseBuild, resilience.KindConfig, b.name,
				"pibe: OptimizeConfig.%s is NaN", b.name)
		}
		if b.v < 0 || b.v > 1 {
			return resilience.Faultf(resilience.PhaseBuild, resilience.KindConfig, b.name,
				"pibe: OptimizeConfig.%s = %v, want a fraction in [0, 1]", b.name, b.v)
		}
	}
	if o.MaxICPTargets < 0 {
		return resilience.Faultf(resilience.PhaseBuild, resilience.KindConfig, "MaxICPTargets",
			"pibe: OptimizeConfig.MaxICPTargets = %d, want >= 0", o.MaxICPTargets)
	}
	return nil
}

// Profile wraps a collected execution profile.
type Profile struct {
	p *prof.Profile
}

// WriteTo serializes the profile in the text format of internal/prof.
func (p *Profile) WriteTo(w io.Writer) (int64, error) { return p.p.WriteTo(w) }

// ReadProfile parses a profile serialized with WriteTo. It is strict:
// one malformed record discards the whole profile. Use
// ReadProfileLenient to salvage truncated or partially corrupt profiles.
func ReadProfile(r io.Reader) (*Profile, error) {
	pp, err := prof.Read(r)
	if err != nil {
		return nil, err
	}
	return &Profile{p: pp}, nil
}

// ReadProfileLenient parses a possibly damaged profile, skipping corrupt
// records, and reports what it salvaged. Torn writes (a crashed
// profiling host) and mangled records degrade to a usable partial
// profile instead of an error.
func ReadProfileLenient(r io.Reader) (*Profile, *prof.Salvage, error) {
	pp, sal, err := prof.ReadLenient(r)
	if pp == nil {
		return nil, sal, err
	}
	return &Profile{p: pp}, sal, err
}

// Merge folds another profile into this one.
func (p *Profile) Merge(other *Profile) { p.p.Merge(other.p) }

// TargetDistribution returns the Table 4 statistic: for each observed
// target count (key 7 = ">6"), the number of indirect call sites.
func (p *Profile) TargetDistribution() map[int]int { return p.p.TargetDistribution() }

// Raw exposes the underlying profile for advanced use within this module.
func (p *Profile) Raw() *prof.Profile { return p.p }

// TopReport formats the n hottest call sites with cumulative coverage.
func (p *Profile) TopReport(n int) string { return p.p.TopReport(n) }

// FaultRates configures per-event fault-injection probabilities; see
// resilience.Rates for field semantics.
type FaultRates = resilience.Rates

// UniformFaultRates sets every fault kind to (a normalization of) r.
func UniformFaultRates(r float64) FaultRates { return resilience.UniformRates(r) }

// IsFault extracts the structured fault in err's chain, if any. All
// pipeline failures — execution aborts, injected chaos, invalid
// configuration, recovered panics — carry a *resilience.FaultError.
func IsFault(err error) (*resilience.FaultError, bool) { return resilience.AsFault(err) }

// IsPartialProfileErr reports whether err marks a profiling run that
// aborted but still returned a usable partial profile.
func IsPartialProfileErr(err error) bool { return resilience.IsAbort(err) }

// System is a generated synthetic kernel ready to be profiled and built
// into hardened images.
type System struct {
	Kernel *kernel.Kernel
	// baseline program compiled from the pristine module, used for
	// profiling runs.
	prog *interp.Program
	// inject, when armed, threads chaos faults through profiling and
	// measurement runs of this system and its images.
	inject *resilience.Injector
	// measureWorkers bounds the goroutines image measurement runs its
	// repetitions on.
	measureWorkers int
	// engine selects the execution tier for every machine this system's
	// profiling and measurement runs build; the zero value is the
	// threaded-code tier.
	engine interp.Engine
}

// Engine selects the execution tier for a System's profiling and
// measurement runs. See SetEngine.
type Engine = interp.Engine

// Execution tiers: the threaded-code compiled engine (the default),
// which runs every machine, JumpSwitches hooks and chaos injectors
// included, and the per-event reference loop it is checked against.
// The compiled tier is cycle-exact, so every profile, measurement,
// sweep surface and census is identical under either; only wall-clock
// changes. Profiling runs (a recorder and no CPU model) take its
// model-free chain.
const (
	EngineInterp   = interp.EngineInterp
	EngineCompiled = interp.EngineCompiled
)

// SetEngine selects the execution tier for this system's profiling and
// measurement runs and those of images it builds.
func (s *System) SetEngine(e Engine) { s.engine = e }

// SetMeasureWorkers sets how many goroutines this system's images run
// measurement repetitions on; below 2 they run on the calling goroutine.
// Every repetition has its own derived seed, machine and CPU model, so
// results are identical for every n, and an armed chaos injector whose
// measurement faults the runner's redraws absorb changes none of them.
func (s *System) SetMeasureWorkers(n int) { s.measureWorkers = n }

// NewSyntheticKernel generates the kernel substrate.
func NewSyntheticKernel(cfg KernelConfig) (sys *System, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseBuild, "NewSyntheticKernel")
	k, err := kernel.Generate(kernel.Config{Seed: cfg.Seed, ColdFuncs: cfg.ColdFuncs, HelperLayers: cfg.HelperLayers})
	if err != nil {
		return nil, err
	}
	prog, err := interp.Compile(k.Mod.Clone())
	if err != nil {
		return nil, err
	}
	return &System{Kernel: k, prog: prog}, nil
}

// InjectFaults arms a deterministic, seeded chaos injector on this
// system: profiling runs draw execution faults from it (aborting runs
// degrade to partial profiles) and measurement runs draw transient
// failures (a failing plan is drawn up to 4 times in all, with no
// delay, before the measurement fails). maxFaults caps the total
// faults fired (0 = unlimited). It returns the injector so callers can
// inspect fired-fault counts; passing all-zero rates disarms injection.
func (s *System) InjectFaults(seed int64, rates FaultRates, maxFaults int) *resilience.Injector {
	if rates == (FaultRates{}) {
		s.inject = nil
		return nil
	}
	s.inject = resilience.NewInjector(seed, rates)
	s.inject.SetMaxFaults(maxFaults)
	return s.inject
}

// Profile runs the profiling binary under the given workload and returns
// the collected edge/value profile. opsScale multiplies the workload's
// mix weights.
//
// If the profiling run aborts (an execution trap or resource
// exhaustion, organic or injected), Profile returns the partial profile
// collected so far along with the abort error — check
// IsPartialProfileErr(err); the partial profile merges and builds like
// any other.
func (s *System) Profile(w Workload, opsScale int) (p *Profile, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseProfile, "Profile")
	r, err := workload.NewRunner(s.Kernel, s.prog, w, 1000+int64(w))
	if err != nil {
		return nil, err
	}
	r.Inject = s.inject
	r.Engine = s.engine
	pp, err := r.Profile(opsScale)
	if pp == nil {
		return nil, err
	}
	return &Profile{p: pp}, err
}

// BuildConfig describes one production image.
type BuildConfig struct {
	// Profile supplies the PGO input; required when Optimize requests
	// any transformation.
	Profile *Profile
	// Optimize selects PIBE's transformations.
	Optimize OptimizeConfig
	// Defenses selects the hardening applied after optimization.
	Defenses Defenses
	// JumpSwitches enables the runtime-promotion baseline instead of
	// static ICP (§8.2); it composes with Defenses.Retpolines as the
	// fallback for unlearned targets.
	JumpSwitches bool
}

// OptimizeStats reports what the optimization passes did.
type OptimizeStats struct {
	ICP    *icp.Result
	Inline *inline.Result
	LLVM   *llvminline.Result
}

// Image is a built (optimized and hardened) kernel image.
type Image struct {
	sys    *System
	cfg    BuildConfig
	Mod    *ir.Module
	prog   *interp.Program
	Census *harden.Census
	Opt    OptimizeStats
}

// Build produces a production image: clone the kernel, apply ICP and
// inlining under the configured budgets, harden the remaining indirect
// branches, and compile. Invalid configurations are rejected up front
// with structured errors, and panics escaping the transformation passes
// are recovered into errors rather than crashing the host.
func (s *System) Build(cfg BuildConfig) (img *Image, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseBuild, "Build")
	if err := cfg.Optimize.validate(); err != nil {
		return nil, err
	}
	if cfg.Optimize.any() && cfg.Profile == nil {
		return nil, errors.New("pibe: optimization requested without a profile")
	}
	mod := s.Kernel.Mod.Clone()
	img = &Image{sys: s, cfg: cfg, Mod: mod}

	var extraWeights map[ir.SiteID]uint64
	// The §8.4 default-LLVM-inliner datapoint is a stock PGO build: no
	// PIBE indirect call promotion either.
	if cfg.Optimize.ICPBudget > 0 && !cfg.Optimize.UseLLVMInliner {
		res, err := icp.Run(mod, cfg.Profile.p, icp.Options{
			Budget:            cfg.Optimize.ICPBudget,
			MaxTargetsPerSite: cfg.Optimize.MaxICPTargets,
		})
		if err != nil {
			return nil, fmt.Errorf("pibe: icp: %v", err)
		}
		img.Opt.ICP = res
		extraWeights = res.NewSiteWeights
	}
	if cfg.Optimize.InlineBudget > 0 {
		if cfg.Optimize.UseLLVMInliner {
			res, err := llvminline.Run(mod, cfg.Profile.p, llvminline.Options{
				Budget:       cfg.Optimize.InlineBudget,
				ExtraWeights: extraWeights,
			})
			if err != nil {
				return nil, fmt.Errorf("pibe: llvm inliner: %v", err)
			}
			img.Opt.LLVM = res
		} else {
			opts := inline.Options{
				Budget:       cfg.Optimize.InlineBudget,
				LaxBudget:    cfg.Optimize.LaxBudget,
				ExtraWeights: extraWeights,
			}
			if cfg.Optimize.DisableRule2 {
				opts.Rule2Threshold = -1
			}
			if cfg.Optimize.DisableRule3 {
				opts.Rule3Threshold = -1
			}
			opts.DisableInheritance = cfg.Optimize.DisableInheritance
			res, err := inline.Run(mod, cfg.Profile.p, opts)
			if err != nil {
				return nil, fmt.Errorf("pibe: inline: %v", err)
			}
			img.Opt.Inline = res
		}
	}
	census, err := harden.Apply(mod, cfg.Defenses)
	if err != nil {
		return nil, fmt.Errorf("pibe: harden: %v", err)
	}
	img.Census = census
	if cfg.JumpSwitches {
		// JumpSwitches replaces the static forward-edge instrumentation:
		// indirect calls dispatch through the runtime switch (with a
		// retpoline as the learning/fallback path), so the compiler
		// leaves them bare for the runtime hook to manage.
		for _, f := range mod.Funcs {
			f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
				if in.Op == ir.OpICall && !in.Asm {
					in.Defense = ir.DefNone
				}
			})
		}
	}
	if err := ir.Verify(mod, ir.VerifyOptions{}); err != nil {
		return nil, fmt.Errorf("pibe: built image does not verify: %w", err)
	}
	prog, err := interp.Compile(mod)
	if err != nil {
		return nil, fmt.Errorf("pibe: compile: %v", err)
	}
	img.prog = prog
	return img, nil
}

// Latency is one measured LMBench data point.
type Latency struct {
	Bench  string
	Micros float64
	Cycles float64
}

// runner builds a workload runner against this image, attaching the
// JumpSwitches hook if configured and the system's chaos injector if
// armed (the runner redraws transient measurement faults; nothing above
// it retries).
func (img *Image) runner(w Workload, seed int64) (*workload.Runner, error) {
	r, err := workload.NewRunner(img.sys.Kernel, img.prog, w, seed)
	if err != nil {
		return nil, err
	}
	if img.cfg.JumpSwitches {
		// Each measurement repetition gets its own JumpSwitches
		// runtime, which learns its targets within that repetition.
		r.NewHook = func() interp.ICallHook {
			return jumpswitch.New(jumpswitch.DefaultParams())
		}
	}
	r.RefillRSB = img.cfg.Defenses.RSBRefill
	r.Inject = img.sys.inject
	r.Workers = img.sys.measureWorkers
	r.Engine = img.sys.engine
	return r, nil
}

// MeasureLMBench measures all 20 LMBench latency benchmarks on the image.
func (img *Image) MeasureLMBench(w Workload) (lats []Latency, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseMeasure, "MeasureLMBench")
	r, err := img.runner(w, 71)
	if err != nil {
		return nil, err
	}
	ms, err := r.MeasureAll()
	if err != nil {
		return nil, err
	}
	out := make([]Latency, len(ms))
	for i, m := range ms {
		out[i] = Latency{Bench: m.Bench, Micros: m.Micros, Cycles: m.Cycles}
	}
	return out, nil
}

// MeasureBenchmark measures a single benchmark.
func (img *Image) MeasureBenchmark(w Workload, bench string) (lat Latency, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseMeasure, "MeasureBenchmark")
	r, err := img.runner(w, 71)
	if err != nil {
		return Latency{}, err
	}
	m, err := r.Measure(bench)
	if err != nil {
		return Latency{}, err
	}
	return Latency{Bench: m.Bench, Micros: m.Micros, Cycles: m.Cycles}, nil
}

// MeasureRequestCycles measures the kernel cycles of one application
// request for the macrobenchmarks (Table 7).
func (img *Image) MeasureRequestCycles(app Workload) (cycles float64, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseMeasure, "MeasureRequestCycles")
	r, err := img.runner(app, 73)
	if err != nil {
		return 0, err
	}
	return r.MeasureRequest(5)
}

// SecurityReport attacks every indirect branch of the image and reports
// which remain hijackable (Table 11 / §8.6).
func (img *Image) SecurityReport() attack.Report {
	return attack.Evaluate(img.Mod)
}

// Size returns the image size in bytes.
func (img *Image) Size() int64 { return img.Mod.ByteSize() }

// Stats returns the static composition of the image.
func (img *Image) Stats() ir.Stats { return ir.CollectStats(img.Mod) }

// DumpFunction renders one function of the image in the IR text format
// (parsable by internal/ir's Parse). It returns "" if the function does
// not exist.
func (img *Image) DumpFunction(name string) string {
	f := img.Mod.Func(name)
	if f == nil {
		return ""
	}
	return ir.Print(f)
}

// FleetConfig configures continuous fleet profiling: every epoch, N
// concurrent workload runners profile the live image and stream their
// deltas into a one-tenant profile-ingestion service (internal/ingest),
// whose aggregate decays once per epoch. At each epoch's barrier a
// drift detector compares the live hot set against the profile the
// active image was built from and rebuilds the image from the fresh
// aggregate when overlap falls below the threshold. A rebuilt image is
// not trusted blindly: it must pass differential validation against the
// unoptimized-but-hardened reference (internal/diffcheck), then serve a
// canary window, and is promoted only when its canary latency stays
// within RegressionBudget of the incumbent and no new fault kinds
// appeared — otherwise the incumbent keeps serving.
type FleetConfig struct {
	// Runners is the concurrent collector count per epoch (default 4);
	// runner i profiles Mix[i%len(Mix)].
	Runners int
	// Epochs is the number of collection epochs (default 1).
	Epochs int
	// OpsScale multiplies each runner's workload mix (default 2).
	OpsScale int
	// Seed derives all runner seeds. Same Seed ⇒ byte-identical
	// aggregate snapshots (absent fault injection).
	Seed int64
	// Decay is the per-epoch count multiplier in (0, 1]; 0 means the
	// default 0.5, 1 disables decay, and anything else is rejected.
	Decay float64
	// Mix lists the flavors the fleet runs (default all-LMBench).
	Mix []Workload
	// HotBudget is the cumulative-weight budget in (0, 1] defining the
	// hot set the drift detector compares (0 means the default 0.99).
	HotBudget float64
	// DriftThreshold triggers a rebuild when live-vs-baseline hot-set
	// overlap falls below it; 0 disables drift-triggered rebuilds, and
	// NaN or a value outside [0, 1] is rejected.
	DriftThreshold float64
	// CanaryEpochs is how many epochs (counting the build epoch) a
	// rebuilt candidate serves before the promotion decision (default 1:
	// validate, measure and decide within the drift epoch).
	CanaryEpochs int
	// RegressionBudget is the relative canary-latency regression
	// tolerated versus the incumbent before the candidate is rolled back
	// (0 means the default 0.05; negative means zero tolerance; NaN and
	// ±Inf are rejected).
	RegressionBudget float64
	// StateDir, when non-empty, makes the fleet crash-safe: the ingest
	// service checkpoints its aggregate, counters and promotion state
	// there after every epoch (creating the directory if needed), and
	// NewFleet resumes mid-loop from an existing checkpoint (losing at
	// most the epoch that was in flight). A checkpoint written under a
	// different configuration — anything but Epochs — is rejected
	// instead of resumed.
	StateDir string
	// Build is the image configuration the rebuild controller uses; its
	// Profile field is replaced by the baseline profile for the initial
	// image and by the live aggregate on each rebuild.
	Build BuildConfig
	// Measure records the per-request kernel-cycle trajectory of the
	// active image after every epoch, on the MeasureApp workload
	// (default Apache), so rebuilds show up as overhead drops.
	Measure    bool
	MeasureApp Workload
	// TamperRebuild is a chaos hook for validation testing: when
	// non-nil, it mutates every rebuilt candidate's module (modeling a
	// miscompiled or corrupted optimization pass) after hardening and
	// before differential validation, which must then reject the
	// candidate. Never set in production.
	TamperRebuild func(*ir.Module)
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Runners <= 0 {
		c.Runners = 4
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.OpsScale <= 0 {
		c.OpsScale = 2
	}
	if len(c.Mix) == 0 {
		c.Mix = []Workload{LMBench}
	}
	if c.Measure && workload.Request(c.MeasureApp) == nil {
		c.MeasureApp = Apache
	}
	return c
}

// fingerprint identifies the configuration a fleet checkpoint was
// written under. It covers everything that changes what the collectors
// report or what the loop decides, and leaves out Epochs (a finished
// run resumes with more) and the measurement settings.
func (c FleetConfig) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed %d\nrunners %d\nops-scale %d\nmix %v\ndecay %g\nhot-budget %g\n",
		c.Seed, c.Runners, c.OpsScale, c.Mix, c.Decay, c.HotBudget)
	fmt.Fprintf(h, "drift-threshold %g\ncanary-epochs %d\nregression-budget %g\n",
		c.DriftThreshold, c.CanaryEpochs, c.RegressionBudget)
	fmt.Fprintf(h, "build %+v %+v %t\n", c.Build.Optimize, c.Build.Defenses, c.Build.JumpSwitches)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FleetEpoch is one epoch of a fleet run: the collection tallies, the
// drift statistic, and (when FleetConfig.Measure is set) the measured
// per-request kernel cycles of the image active at the epoch's end.
type FleetEpoch struct {
	Epoch                   int
	Merged, Aborted, Failed int
	// FaultKinds lists (sorted) the structured fault kinds collectors
	// hit this epoch.
	FaultKinds []string
	// Overlap is the hot-set overlap between the live aggregate and the
	// profile the active image was built from.
	Overlap float64
	// Rebuilt records that drift produced a candidate image this epoch;
	// RebuildErr carries a failed rebuild's error text.
	Rebuilt    bool
	RebuildErr string
	// Canary reports that a candidate image was serving its canary
	// window this epoch; Promoted that it passed every gate and became
	// the active image; Rejected carries the reason it was rolled back
	// instead.
	Canary   bool
	Promoted bool
	Rejected string
	// CoolingDown, when non-zero, is how many epochs of rebuild
	// cool-down remained (counting this one) when drift was detected but
	// the rebuild was suppressed after recent rejections.
	CoolingDown int
	// Sites and Ops describe the aggregate snapshot the drift detector
	// read (before the epoch's decay).
	Sites int
	Ops   uint64
	// RequestCycles is the overhead-trajectory sample (0 when Measure is
	// off).
	RequestCycles float64
}

// FleetResult is a completed fleet run.
type FleetResult struct {
	Epochs []FleetEpoch
	// StartEpoch is the epoch the run began at (non-zero after a
	// checkpoint resume).
	StartEpoch int
	// Rebuilds counts drift-triggered rebuilds that passed every
	// promotion gate and became the active image.
	Rebuilds int
	// RebuildFailures counts rebuild attempts whose build failed
	// outright; Rejections counts candidates built but rolled back by a
	// promotion gate (validation, canary latency, new fault kinds).
	RebuildFailures int
	Rejections      int
	// Partial reports that some collectors aborted or failed and the
	// aggregate under-counts the fleet (graceful degradation).
	Partial bool
	// Final is the aggregate snapshot the drift detector read at the
	// last epoch's barrier. Every run ends at one: NewFleet rejects a
	// checkpoint that leaves no epoch to run.
	Final *Profile
}

// fleetTenant is the one tenant a Fleet's ingest service runs.
const fleetTenant = "fleet"

// Fleet couples a one-tenant profile-ingestion service to this
// system's build pipeline: it keeps an active (incumbent) image, feeds
// the service deltas from real workload runs, re-optimizes when the
// service detects drift against the profile that image was built from,
// and promotes the rebuilt image only after it passes differential
// validation and its canary window.
type Fleet struct {
	sys *System
	cfg FleetConfig
	img *Image
	// ref is the lazily built unoptimized-but-hardened reference image
	// candidates are differentially validated against.
	ref *Image
	svc *ingest.Service
	// res is the result Run is filling; tally the collector tallies of
	// the epoch whose barrier is running. epochRow reads both.
	res   *FleetResult
	tally FleetEpoch
}

// NewFleet opens the fleet's ingest service and builds the initial
// image from baseline (via cfg.Build with its Profile replaced by
// baseline); the drift detector compares live aggregates against that
// baseline. When cfg.StateDir holds a checkpoint from an interrupted
// run, the fleet resumes from it: the checkpointed baseline (which
// reflects any promotions before the crash) drives the initial image,
// an in-flight canary is rebuilt, and Run continues at the checkpointed
// epoch. A checkpoint already at or past cfg.Epochs is rejected with a
// config fault: its aggregate was decayed at its last barrier, so it
// is not the snapshot that barrier read. The system's chaos injector,
// if armed, is threaded through the collectors. The service stays
// open, with one merge goroutine, until Run returns.
func (s *System) NewFleet(baseline *Profile, cfg FleetConfig) (f *Fleet, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseFleet, "NewFleet")
	if baseline == nil {
		return nil, errors.New("pibe: fleet requires a baseline profile")
	}
	cfg = cfg.withDefaults()
	for _, w := range cfg.Mix {
		if workload.Mix(w) == nil {
			return nil, fmt.Errorf("pibe: fleet flavor %v has no workload mix", w)
		}
	}
	f = &Fleet{sys: s, cfg: cfg}
	f.svc, err = ingest.Open(ingest.Config{
		Workers:   1,
		Decay:     cfg.Decay,
		HotBudget: cfg.HotBudget,
		Baseline:  baseline.p,
		Promote: &fleet.PromoteConfig{
			DriftThreshold:   cfg.DriftThreshold,
			CanarySteps:      cfg.CanaryEpochs,
			RegressionBudget: cfg.RegressionBudget,
		},
		NewController: func(string) *fleet.Controller { return f.controller() },
		OnRound:       f.epochRow,
		StateDir:      cfg.StateDir,
		Fingerprint:   cfg.fingerprint(),
	})
	if err != nil {
		return nil, err
	}
	if done := f.svc.Round(); done >= cfg.Epochs {
		f.svc.Close()
		return nil, resilience.Faultf(resilience.PhaseFleet, resilience.KindConfig, "fleet-epochs",
			"checkpoint is at epoch %d of %d: no epoch left to run (raise the epoch count to resume)",
			done, cfg.Epochs)
	}
	if b := f.svc.Baseline(fleetTenant); b != nil {
		// The checkpointed baseline is the profile the incumbent at
		// crash time was built from; rebuilding from it restores that
		// incumbent exactly (builds are deterministic).
		baseline = &Profile{p: b}
	}
	bc := cfg.Build
	bc.Profile = baseline
	if f.img, err = s.Build(bc); err != nil {
		f.svc.Close()
		return nil, fmt.Errorf("pibe: fleet initial build: %w", err)
	}
	return f, nil
}

// Image returns the currently active (most recently promoted) image.
func (f *Fleet) Image() *Image { return f.img }

// refImage lazily builds the reference for differential validation: the
// same kernel, hardened identically, but with no profile-guided
// optimization — the image whose behaviour any candidate must preserve.
func (f *Fleet) refImage() (*Image, error) {
	if f.ref != nil {
		return f.ref, nil
	}
	bc := f.cfg.Build
	bc.Profile = nil
	bc.Optimize = OptimizeConfig{}
	ref, err := f.sys.Build(bc)
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	f.ref = ref
	return ref, nil
}

// validateCandidate differentially validates a candidate image against
// the reference over the fleet's workload mix.
func (f *Fleet) validateCandidate(cand *Image) error {
	ref, err := f.refImage()
	if err != nil {
		return err
	}
	_, err = diffcheck.Validate(f.sys.Kernel, ref.prog, cand.prog, diffcheck.Config{
		Flavors:      f.cfg.Mix,
		Seed:         f.cfg.Seed + 777,
		Runs:         2,
		Harden:       f.cfg.Build.Defenses,
		JumpSwitches: f.cfg.Build.JumpSwitches,
	})
	return err
}

// canaryMetric measures an image the way the live fleet experiences it:
// the geomean of per-request kernel cycles over the mix's application
// workloads, falling back to a geomean of LMBench microbenchmarks when
// the mix has no request-driven flavor.
func (f *Fleet) canaryMetric(img *Image) (float64, error) {
	var apps []Workload
	seen := make(map[Workload]bool)
	for _, w := range f.cfg.Mix {
		if !seen[w] && workload.Request(w) != nil {
			seen[w] = true
			apps = append(apps, w)
		}
	}
	if len(apps) > 0 {
		logSum := 0.0
		for _, w := range apps {
			c, err := img.MeasureRequestCycles(w)
			if err != nil {
				return 0, err
			}
			logSum += math.Log(c)
		}
		return math.Exp(logSum / float64(len(apps))), nil
	}
	lats, err := img.MeasureLMBench(LMBench)
	if err != nil {
		return 0, err
	}
	logSum := 0.0
	for _, l := range lats {
		logSum += math.Log(l.Cycles)
	}
	return math.Exp(logSum / float64(len(lats))), nil
}

// controller is the fleet tenant's rebuild controller: a candidate is
// built from the drifted snapshot, validated against the reference,
// canaried on the mix's request latency, and promoted by swapping the
// active image.
func (f *Fleet) controller() *fleet.Controller {
	return &fleet.Controller{
		Rebuild: func(snap *prof.Profile) (*fleet.Candidate, error) {
			bc := f.cfg.Build
			bc.Profile = &Profile{p: snap}
			img, err := f.sys.Build(bc)
			if err != nil {
				return nil, err
			}
			if f.cfg.TamperRebuild != nil {
				// Chaos hook: corrupt the candidate the way a miscompiled
				// pass would, then recompile so the corruption is live.
				f.cfg.TamperRebuild(img.Mod)
				prog, err := interp.Compile(img.Mod)
				if err != nil {
					return nil, fmt.Errorf("pibe: tampered candidate recompile: %w", err)
				}
				img.prog = prog
			}
			return &fleet.Candidate{
				Validate: func() error { return f.validateCandidate(img) },
				Measure:  func() (float64, error) { return f.canaryMetric(img) },
				Promote:  func() error { f.img = img; return nil },
			}, nil
		},
		Incumbent: func() (float64, error) { return f.canaryMetric(f.img) },
	}
}

// Run executes the configured epochs, from the checkpointed epoch when
// NewFleet resumed: each epoch's collectors profile the mix on real
// workload runs and submit their deltas, and the service's barrier
// measures drift and steps the canary-gated promotion pipeline. Run
// closes the fleet's service, so it may be called once. It returns a
// partial result alongside the error when the run degrades terminally
// (for example, every collector failing).
func (f *Fleet) Run() (res *FleetResult, err error) {
	defer resilience.RecoverPanic(&err, resilience.PhaseFleet, "Fleet.Run")
	defer f.svc.Close()
	res = &FleetResult{StartEpoch: f.svc.Round()}
	f.res = res
	for e := res.StartEpoch; e < f.cfg.Epochs && err == nil; e++ {
		err = f.runEpoch(e)
	}
	st := f.svc.Stats()
	res.Rebuilds = int(st.Promotions)
	res.RebuildFailures = int(st.PromoFailures)
	res.Rejections = int(st.PromoRejects)
	res.Partial = st.Faults > 0
	if err != nil {
		return res, err
	}
	if res.Final == nil {
		if snap := f.svc.TenantSnapshot(fleetTenant); snap != nil {
			res.Final = &Profile{p: snap}
		}
	}
	if res.Final == nil || len(res.Final.p.Sites) == 0 && len(res.Final.p.Invocations) == 0 {
		return res, resilience.Faultf(resilience.PhaseFleet, resilience.KindEmptyAggregate, "aggregate",
			"pibe: fleet: every collector failed; nothing aggregated after %d epochs", f.cfg.Epochs)
	}
	return res, nil
}

// runEpoch runs one epoch's collectors concurrently, submits what each
// collected and reports each aborted or failed collector's fault kind,
// then runs the service's barrier (which calls epochRow).
func (f *Fleet) runEpoch(epoch int) error {
	deltas := make([]fleetDelta, f.cfg.Runners)
	err := workload.RunCells(f.cfg.Runners, f.cfg.Runners, func(i int) error {
		d := f.collect(epoch, i)
		deltas[i] = d
		if d.p != nil {
			if err := f.svc.Submit(fleetTenant, d.p); err != nil {
				return err
			}
		}
		if d.aborted || d.p == nil {
			return f.svc.ReportFault(fleetTenant, d.kind)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pibe: fleet epoch %d: %w", epoch, err)
	}
	f.tally = FleetEpoch{}
	kinds := make(map[string]bool)
	for _, d := range deltas {
		switch {
		case d.p == nil:
			f.tally.Failed++
		case d.aborted:
			f.tally.Aborted++
			f.tally.Merged++
		default:
			f.tally.Merged++
		}
		if d.kind != "" && !kinds[d.kind] {
			kinds[d.kind] = true
			f.tally.FaultKinds = append(f.tally.FaultKinds, d.kind)
		}
	}
	sort.Strings(f.tally.FaultKinds)
	if err := f.svc.EndRound(); err != nil {
		return fmt.Errorf("pibe: fleet epoch %d: %w", epoch, err)
	}
	return nil
}

// epochRow is the service's OnRound observer: after the barrier's
// promotion decision and before its checkpoint, it completes the
// epoch's row and takes the trajectory sample. A failed sample aborts
// the barrier, losing exactly the epoch in flight.
func (f *Fleet) epochRow(r ingest.TenantRound) error {
	row := f.tally
	row.Epoch, row.Overlap = r.Round, r.Drift
	row.Rebuilt, row.RebuildErr = r.Promotion.Rebuilt, r.Promotion.RebuildErr
	row.Canary, row.Promoted, row.Rejected = r.Promotion.Canary, r.Promotion.Promoted, r.Promotion.Rejected
	row.CoolingDown = r.Promotion.CoolingDown
	row.Sites, row.Ops = len(r.Snapshot.Sites), r.Snapshot.Ops
	if f.cfg.Measure {
		c, err := f.img.MeasureRequestCycles(f.cfg.MeasureApp)
		if err != nil {
			return fmt.Errorf("trajectory measurement: %w", err)
		}
		row.RequestCycles = c
	}
	f.res.Epochs = append(f.res.Epochs, row)
	f.res.Final = &Profile{p: r.Snapshot}
	return nil
}

// fleetDelta is one collector's contribution to an epoch: a complete
// profile, the partial profile an aborted run salvaged (aborted), or
// nothing (failed). kind is the fault kind behind an abort or failure,
// when it was structured.
type fleetDelta struct {
	p       *prof.Profile
	aborted bool
	kind    string
}

// collect runs collector i of an epoch: a profiling run of its flavor,
// seeded from (Seed, epoch, i), degrading an aborted run to its
// salvaged partial profile and a panic to a failed delta.
func (f *Fleet) collect(epoch, i int) (d fleetDelta) {
	defer func() {
		if r := recover(); r != nil {
			d = fleetDelta{kind: string(resilience.KindPanic)}
		}
	}()
	kind := func(err error) string {
		if fe, ok := resilience.AsFault(err); ok {
			return string(fe.Kind)
		}
		return ""
	}
	seed := f.cfg.Seed*1_000_003 + int64(epoch)*8191 + int64(i)*127 + 1
	r, err := workload.NewRunner(f.sys.Kernel, f.sys.prog, f.cfg.Mix[i%len(f.cfg.Mix)], seed)
	if err != nil {
		return fleetDelta{kind: kind(err)}
	}
	r.Inject = f.sys.inject
	r.Engine = f.sys.engine
	p, err := r.Profile(f.cfg.OpsScale)
	switch {
	case p == nil:
		return fleetDelta{kind: kind(err)}
	case err != nil && resilience.IsAbort(err):
		if len(p.Sites) == 0 && len(p.Invocations) == 0 {
			return fleetDelta{kind: kind(err)}
		}
		return fleetDelta{p: p, aborted: true, kind: kind(err)}
	case err != nil:
		return fleetDelta{kind: kind(err)}
	}
	return fleetDelta{p: p}
}

// CPUFrequencyGHz is the clock the simulator converts cycles with.
func CPUFrequencyGHz() float64 { return cpu.DefaultParams().FreqGHz }

// Geomean aggregates relative overheads the way the paper's tables do.
func Geomean(overheads []float64) float64 { return workload.Geomean(overheads) }

// GeomeanStats reports how many Geomean inputs were skipped (non-finite)
// or clamped (factor floor); see workload.GeomeanStats.
type GeomeanStats = workload.GeomeanStats

// GeomeanCounted is Geomean plus an account of skipped and clamped
// entries, for callers (sweeps, long table runs) that must not let
// aggregation-layer degradation silently flatten their curves.
func GeomeanCounted(overheads []float64) (float64, GeomeanStats) {
	return workload.GeomeanCounted(overheads)
}

// Overhead returns the relative overhead (new-base)/base. A zero
// baseline is an infinite regression, not a free lunch: Overhead(0, new)
// is +Inf for new > 0 and 0 only when both measurements are zero.
// Geomean skips the resulting Inf (and GeomeanCounted counts it), so a
// broken baseline surfaces as a skipped entry instead of silently
// reading as "no overhead".
func Overhead(base, new float64) float64 {
	if base == 0 {
		if new > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (new - base) / base
}
