// Package diffcheck differentially validates a candidate optimized image
// against a reference image before the fleet promotes it.
//
// PIBE's safety argument (§4) is that ICP and inlining only *eliminate*
// indirect branches; they must not change what the kernel does or expose
// an unhardened branch. The fleet loop rebuilds images from live,
// possibly skewed aggregates, so this package re-checks both halves of
// that argument on every candidate:
//
//  1. Structural: the candidate IR still verifies, and every surviving
//     indirect branch carries the configured defense
//     (harden.CheckInvariants) — no transformation dropped a hardening
//     site.
//  2. Behavioural: the candidate and the reference (unoptimized-but-
//     hardened) image are executed over the workload corpus with
//     identical seeds, and their observable results must
//     match — per-run trap status and the profile-visible sequence of
//     indirect-target resolutions (which original site resolved to which
//     function). The optimization passes reorder *dispatch* — promote it,
//     inline it — but never *resolution*: promoted chains and inlined
//     bodies key their resolves by the original site ID and consume no
//     extra RNG draws, so any control-flow miscompilation desynchronizes
//     the resolution stream and surfaces as a digest mismatch.
//
// Any violation is a structured resilience.FaultError in PhasePromote:
// KindUnhardenedSite for a dropped defense, KindDivergence for any
// behavioural or structural mismatch.
package diffcheck

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"repro/internal/cpu"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/jumpswitch"
	"repro/internal/kernel"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Config selects the validation corpus and the invariants to enforce.
type Config struct {
	// Flavors is the workload corpus both images execute; empty means
	// LMBench. Duplicates are ignored.
	Flavors []workload.Flavor
	// Seed derives the per-benchmark execution seeds. The same seed is
	// used on both images, which is what makes the comparison exact.
	Seed int64
	// Runs is the number of paired executions per (flavor, benchmark)
	// cell (default 3).
	Runs int
	// Harden is the defense configuration both images were hardened
	// with; it parameterizes the invariant check.
	Harden harden.Config
	// JumpSwitches relaxes the forward-edge invariant: that baseline
	// deliberately leaves indirect calls bare for its runtime hook.
	JumpSwitches bool
}

// Report summarizes a passed validation.
type Report struct {
	// Entries is the number of (flavor, benchmark) cells compared.
	Entries int
	// Runs is the total number of paired executions.
	Runs int
	// Digest is the combined observation digest both images produced.
	Digest string
}

// Validate checks the candidate image against the reference. It returns
// a nil error only when the candidate verifies, upholds the hardening
// invariant, and is observationally identical to the reference over the
// corpus. ref and cand must be compiled from the same kernel.
func Validate(k *kernel.Kernel, ref, cand *interp.Program, cfg Config) (*Report, error) {
	if k == nil || ref == nil || cand == nil {
		return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindConfig, "diffcheck",
			"nil kernel or program")
	}
	if err := ir.Verify(cand.Module(), ir.VerifyOptions{}); err != nil {
		return nil, resilience.Fault(resilience.PhasePromote, resilience.KindDivergence, "ir-verify",
			fmt.Errorf("candidate module does not verify: %w", err))
	}
	if err := harden.CheckInvariants(cand.Module(), cfg.Harden, cfg.JumpSwitches); err != nil {
		fe, _ := resilience.AsFault(err)
		site := "harden-invariants"
		if fe != nil {
			site = fe.Site
		}
		return nil, resilience.Fault(resilience.PhasePromote, resilience.KindUnhardenedSite, site, err)
	}

	flavors := cfg.Flavors
	if len(flavors) == 0 {
		flavors = []workload.Flavor{workload.LMBench}
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 3
	}
	rep := &Report{}
	total := fnv.New64a()
	seen := make(map[workload.Flavor]bool)
	for fi, flavor := range flavors {
		if seen[flavor] {
			continue
		}
		seen[flavor] = true
		refRes, err := workload.BuildResolver(k, ref, flavor)
		if err != nil {
			return nil, resilience.Fault(resilience.PhasePromote, resilience.KindConfig, flavor.String(), err)
		}
		candRes, err := workload.BuildResolver(k, cand, flavor)
		if err != nil {
			return nil, resilience.Fault(resilience.PhasePromote, resilience.KindConfig, flavor.String(), err)
		}
		mix := workload.Mix(flavor)
		benches := make([]string, 0, len(mix))
		for b := range mix {
			benches = append(benches, b)
		}
		sort.Strings(benches)
		for bi, bench := range benches {
			entry, ok := k.Entries[bench]
			if !ok {
				return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindConfig,
					flavor.String()+"/"+bench, "mix references unknown benchmark")
			}
			cell := fmt.Sprintf("%s/%s", flavor, bench)
			seed := cfg.Seed + int64(fi)*1_000_003 + int64(bi)*8191 + 7
			refMC := observedMachine(ref, refRes, seed)
			candMC := observedMachine(cand, candRes, seed)
			for r := 0; r < runs; r++ {
				refObs := runObserved(refMC, entry)
				candObs := runObserved(candMC, entry)
				if refObs.outcome != candObs.outcome {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: trap status diverged: reference %s, candidate %s",
						r, refObs.outcome, candObs.outcome)
				}
				if refObs.digest != candObs.digest {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: resolution trace diverged after %d resolutions (reference saw %d): "+
							"first mismatch at %s",
						r, candObs.resolves, refObs.resolves, firstMismatch(refObs, candObs))
				}
				fmt.Fprintf(total, "%s %d %s %s\n", cell, r, refObs.outcome, refObs.digest)
				rep.Runs++
			}
			rep.Entries++
		}
	}
	rep.Digest = fmt.Sprintf("%016x", total.Sum64())
	return rep, nil
}

// ValidateEngines differentially validates the threaded-code execution
// tier against the per-event reference loop on a single program: the
// same image is executed over the workload corpus by both engines with
// identical seeds, and every run must agree on trap outcome, on the
// profile-visible resolution sequence, and — stronger than the
// image-vs-image gate — on the cycle-exact CPU model state (Cycles and
// every counter). This is the same canary machinery the fleet uses to
// promote candidate images, applied to promoting the fast engine: a
// compiled-tier miscompilation surfaces exactly like an optimizer
// miscompilation would, as a KindDivergence fault naming the cell.
// With cfg.JumpSwitches each machine gets its own JumpSwitches runtime,
// so the comparison covers the hooked icall path too.
func ValidateEngines(k *kernel.Kernel, prog *interp.Program, cfg Config) (*Report, error) {
	if k == nil || prog == nil {
		return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindConfig, "diffcheck",
			"nil kernel or program")
	}
	flavors := cfg.Flavors
	if len(flavors) == 0 {
		flavors = []workload.Flavor{workload.LMBench}
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 3
	}
	rep := &Report{}
	total := fnv.New64a()
	seen := make(map[workload.Flavor]bool)
	for fi, flavor := range flavors {
		if seen[flavor] {
			continue
		}
		seen[flavor] = true
		res, err := workload.BuildResolver(k, prog, flavor)
		if err != nil {
			return nil, resilience.Fault(resilience.PhasePromote, resilience.KindConfig, flavor.String(), err)
		}
		mix := workload.Mix(flavor)
		benches := make([]string, 0, len(mix))
		for b := range mix {
			benches = append(benches, b)
		}
		sort.Strings(benches)
		for bi, bench := range benches {
			entry, ok := k.Entries[bench]
			if !ok {
				return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindConfig,
					flavor.String()+"/"+bench, "mix references unknown benchmark")
			}
			cell := fmt.Sprintf("%s/%s", flavor, bench)
			seed := cfg.Seed + int64(fi)*1_000_003 + int64(bi)*8191 + 7
			refOb := observedMachine(prog, res, seed)
			refOb.mc.Engine = interp.EngineInterp
			refOb.mc.CPU = cpu.New(cpu.DefaultParams())
			candOb := observedMachine(prog, res, seed)
			candOb.mc.CPU = cpu.New(cpu.DefaultParams())
			if cfg.JumpSwitches {
				refOb.mc.Hook = jumpswitch.New(jumpswitch.DefaultParams())
				candOb.mc.Hook = jumpswitch.New(jumpswitch.DefaultParams())
			}
			for r := 0; r < runs; r++ {
				refObs := runObserved(refOb, entry)
				candObs := runObserved(candOb, entry)
				if refObs.outcome != candObs.outcome {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: trap status diverged: reference %s, compiled %s",
						r, refObs.outcome, candObs.outcome)
				}
				if refObs.digest != candObs.digest {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: resolution trace diverged after %d resolutions (reference saw %d): "+
							"first mismatch at %s",
						r, candObs.resolves, refObs.resolves, firstMismatch(refObs, candObs))
				}
				if refOb.mc.CPU.Cycles != candOb.mc.CPU.Cycles {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: cycle count diverged: reference %d, compiled %d",
						r, refOb.mc.CPU.Cycles, candOb.mc.CPU.Cycles)
				}
				if refOb.mc.CPU.Stats != candOb.mc.CPU.Stats {
					return nil, resilience.Faultf(resilience.PhasePromote, resilience.KindDivergence, cell,
						"run %d: event counters diverged: reference %+v, compiled %+v",
						r, refOb.mc.CPU.Stats, candOb.mc.CPU.Stats)
				}
				fmt.Fprintf(total, "%s %d %s %s %d\n", cell, r, refObs.outcome, refObs.digest, refOb.mc.CPU.Cycles)
				rep.Runs++
			}
			rep.Entries++
		}
	}
	rep.Digest = fmt.Sprintf("%016x", total.Sum64())
	return rep, nil
}

// observation is one run's observable result: the trap outcome and a
// digest of the (original site, resolved target) sequence. The trace
// keeps a bounded tail for mismatch reporting.
type observation struct {
	outcome  string
	digest   string
	resolves int
	trace    []string
}

const traceTail = 8

type observer struct {
	mc    *interp.Machine
	h     hash.Hash64
	count int
	tail  []string
}

func observedMachine(prog *interp.Program, res *interp.Resolver, seed int64) *observer {
	mc := interp.NewMachine(prog, seed)
	mc.Res = res
	ob := &observer{mc: mc, h: fnv.New64a()}
	mc.OnResolve = func(orig ir.SiteID, target int32) {
		name := prog.FuncName(int(target))
		fmt.Fprintf(ob.h, "%d>%s\n", orig, name)
		ob.count++
		if len(ob.tail) == traceTail {
			copy(ob.tail, ob.tail[1:])
			ob.tail = ob.tail[:traceTail-1]
		}
		ob.tail = append(ob.tail, fmt.Sprintf("site %d -> %s", orig, name))
	}
	return ob
}

func runObserved(ob *observer, entry string) observation {
	ob.h.Reset()
	ob.count = 0
	ob.tail = ob.tail[:0]
	err := ob.mc.Run(entry)
	outcome := "ok"
	if err != nil {
		if fe, ok := resilience.AsFault(err); ok {
			outcome = string(fe.Kind)
		} else {
			outcome = "error"
		}
	}
	return observation{
		outcome:  outcome,
		digest:   fmt.Sprintf("%016x", ob.h.Sum64()),
		resolves: ob.count,
		trace:    append([]string(nil), ob.tail...),
	}
}

// firstMismatch renders the tail of both traces for the divergence error.
func firstMismatch(ref, cand observation) string {
	return fmt.Sprintf("reference tail %v vs candidate tail %v", ref.trace, cand.trace)
}
