// Command pibe drives the PIBE pipeline step by step, mirroring the
// paper's artifact workflow: generate a kernel, collect a profile, build
// an optimized + hardened image, measure it, and report its security
// census.
//
// Usage:
//
//	pibe profile  [-seed N] [-workload lmbench|apache|nginx|dbench] [-o profile.txt]
//	pibe build    [-seed N] [-profile profile.txt] [-defenses all|retpolines|ret-retpolines|lvi|fineibt|pac-cfi|verifence|none]
//	              [-icp 0.99999] [-inline 0.999999] [-lax 0.99] [-llvm-inliner] [-jumpswitches]
//	              [-measure] [-security]
//	pibe measure  [-seed N] [-profile profile.txt] ... (build + LMBench latencies)
//	pibe top      [-seed N] [-workload lmbench|apache|nginx|dbench] [-n 30]   (hottest call sites)
//	pibe dump     [-seed N] -func NAME [...build flags]          (one function's IR)
//	pibe fleet    [-seed N] [-fleet 4] [-fleet-shards 8] [-fleet-epochs 3]
//	              [-drift-threshold 0.75] [-fleet-mix apache,nginx] [-fleet-decay 0.5]
//	              [-canary 1] [-regression-budget 0.05] [-state DIR]
//	              [-profile baseline.txt] [...build flags] [-measure] [-snapshot-out final.txt]
//	pibe sweep    [-seed N] [-sweep-grid 0,50,90,99,99.9,99.99,99.9999] [-sweep-combos retpoline,all]
//	              [-sweep-knee 1.1] [-sweep-kernel-scale 1] [-sweep-timings]
//	              [-state sweep.state] [-sweep-shards N -sweep-shard I]
//	              [-chaos RATE] [-measure-workers N] [-o BENCH_sweep.json]
//	pibe sweep-merge [-o BENCH_sweep.json] state-file...
//	pibe sweep-diff  A.json B.json
//	pibe ingest   [-seed N] [-tenants 64] [-kernels 16384] [-ingest-rounds 3]
//	              [-ingest-workers N] [-ingest-batch 64] [-ingest-queue 64] [-ingest-shed]
//	              [-ingest-idle-evict 4] [-tenant-shards 4] [-global-shards 16]
//	              [-sites-per-delta 12] [-ingest-mix lmbench,apache,nginx,dbench]
//	              [-ingest-trip-faults 8] [-ingest-open-rounds 2] [-ingest-rate N]
//	              [-ingest-burst N] [-ingest-drift-floor F]
//	              [-ingest-poison] [-ingest-poison-from R]
//	              [-state DIR] [-snapshot-out global.txt] [-o BENCH_ingest.json]
//
// Ingest mode runs the multi-tenant profile-ingestion service against a
// simulated fleet-of-fleets: -tenants fleets of -kernels reporting
// kernels each (the default is 64 × 16384 = 1,048,576 kernels), every
// kernel submitting one profile delta per round. Deltas batch per
// tenant, flow through a bounded merge queue into per-tenant striped
// aggregators and a global cross-tenant aggregate, and every round ends
// with decay/eviction of idle tenants (every fourth simulated tenant
// reports intermittently). Counts are exact sums, so the -snapshot-out
// global profile is byte-identical for every -ingest-workers value; the
// queue backpressures by blocking, or sheds with counted overload
// faults under -ingest-shed. With -state DIR the service checkpoints
// after every round (evicted tenants get their own crash-safe files and
// are resurrected from them on their next delta); a killed run rerun
// with the same flags resumes at the checkpointed round and produces a
// byte-identical final snapshot. BENCH_ingest.json records throughput,
// batch-merge latency quantiles, queue high-water, lifecycle counters
// and per-tenant drift.
//
// Every tenant runs behind a fault-isolation bulkhead: deltas are
// structurally sanitized at submission (malformed ones are rejected as
// poison and never merge), a per-tenant circuit breaker driven at the
// round barrier quarantines a tenant after -ingest-trip-faults faults
// in one round (its deltas are then counted and dropped for
// -ingest-open-rounds rounds, doubling on re-trips, before a probation
// round decides between healing and re-quarantine), and -ingest-rate
// caps each tenant's admitted deltas per round (-ingest-burst the
// bucket). -ingest-poison adds a simulated poison tenant: because
// rejected and quarantined deltas never reach the merge, the final
// -snapshot-out is byte-identical with and without it. -ingest-drift-floor
// marks tenants whose hot set drifts too far as degraded in the health
// census. All isolation state rides in the round-barrier checkpoint, so
// a killed run resumes with its quarantines intact.
//
// Sweep mode evaluates the full ICP×inline budget grid (the same
// -sweep-grid percentages on both axes) crossed with the named defense
// combos, prints one aligned geomean-overhead matrix per combo with its
// knee point (the least aggressive budget pair within -sweep-knee of
// the combo's best slowdown factor) and writes the machine-readable
// surface to BENCH_sweep.json. Each cell builds its own image, keeps
// only its result (so memory does not grow with the grid) and measures
// through the deterministic measurement driver, so the JSON is
// byte-identical for every -measure-workers value
// (wall-clock build times are recorded only under -sweep-timings, which
// gives that determinism up). -sweep-kernel-scale S multiplies the cold
// driver corpus to S×2200 functions and adds S-1 intermediate helper
// layers, stressing the census tables at realistic kernel scale.
//
// Sweeps are crash-safe and degrade gracefully. With -state FILE every
// completed cell is appended to a fingerprint-gated, torn-write-tolerant
// state file; rerunning with the same flags resumes past completed cells
// and emits a BENCH_sweep.json byte-identical to an uninterrupted run's
// (a state file from different flags is rejected). A cell that keeps
// failing after retries is reported as FAIL with its structured fault and
// excluded from knee detection instead of aborting the sweep.
// -sweep-shards N -sweep-shard I restricts one process to every Nth grid
// cell; `pibe sweep-merge` combines the shard state files into the
// canonical report, and `pibe sweep-diff A.json B.json` compares two
// sweep surfaces cell by cell and reports knee migration.
//
// Measurement commands accept -measure-workers N (default GOMAXPROCS):
// the measurement driver runs repetitions, each with its own derived
// seed, machine and CPU model, on up to N goroutines (below 2, on the
// calling one). Results are identical for every N, and under -chaos too:
// injected measurement faults are drawn and retried before any
// repetition runs.
//
// Every command accepts -engine compiled|interp to select the execution
// tier for profiling and measurement machines. The default, compiled,
// runs pre-compiled threaded code (closure chains) on every machine,
// JumpSwitches and chaos runs included; profiling machines carry a
// recorder and no CPU model and run on its model-free chain. interp
// runs the per-event reference loop the compiled tier is checked
// against. The tier is cycle-exact — profiles, latencies, sweep
// surfaces and censuses are identical — so the flag only changes
// wall-clock time.
//
// Fleet mode runs continuous profiling as the ingest service with one
// tenant: -fleet concurrent collectors per epoch profile real workload
// runs and submit their deltas, and each epoch ends at the service's
// round barrier, where the tenant's aggregate (decayed by -fleet-decay,
// in (0, 1], once per epoch) is checked for drift: when the live hot
// set's overlap with the baseline profile falls below -drift-threshold,
// the image is rebuilt from the fresh aggregate. A rebuilt image must
// pass differential validation against the unoptimized-but-hardened
// reference, then serve -canary epochs; it is promoted only if its
// canary latency stays within -regression-budget of the incumbent and
// no new fault kinds appeared — otherwise the incumbent keeps serving
// and the rejection reason is printed. With -state DIR (created if
// missing), the service checkpoints after every epoch and a rerun with
// the same directory and flags resumes mid-loop (-fleet-epochs may
// grow), losing at most the epoch that was in flight when the process
// died. With -measure, each epoch reports the active image's
// per-request kernel cycles, so a promotion shows up as a latency drop.
// -snapshot-out writes the aggregate the last epoch's drift detector
// read; a killed and resumed run writes the same bytes as an
// uninterrupted one.
//
// Chaos mode (any command): -chaos RATE arms a deterministic fault
// injector (seeded by -chaos-seed) that forces execution traps,
// fuel/depth exhaustion and transient measurement failures at the given
// rate. The pipeline degrades gracefully — aborted profiling runs emit
// the partial profile collected so far, and transient measurement
// failures are retried with backoff; fired faults are summarized on
// stderr. -lenient salvages corrupt or truncated -profile inputs,
// skipping bad records and reporting what was kept.
//
// The kernel is regenerated deterministically from the seed on every
// invocation, so a profile collected by one run maps onto the kernel
// built by the next.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	pibe "repro"
	"repro/internal/resilience"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "kernel generation seed")
	workloadName := fs.String("workload", "lmbench", "profiling workload: lmbench, apache, nginx or dbench")
	out := fs.String("o", "", "output file (default stdout)")
	profilePath := fs.String("profile", "", "profile file from 'pibe profile'")
	defenses := fs.String("defenses", "all", "defenses: all, retpolines, ret-retpolines, lvi, fineibt, pac-cfi, verifence, none")
	icpBudget := fs.Float64("icp", 0.99999, "indirect call promotion budget (0 disables)")
	inlineBudget := fs.Float64("inline", 0.999999, "inlining budget (0 disables)")
	lax := fs.Float64("lax", 0.99, "lax-heuristics budget (0 disables)")
	llvmInliner := fs.Bool("llvm-inliner", false, "use the default-LLVM baseline inliner")
	jumpswitches := fs.Bool("jumpswitches", false, "use the JumpSwitches runtime baseline")
	measure := fs.Bool("measure", false, "measure LMBench latencies after build")
	security := fs.Bool("security", false, "print the security census after build")
	topN := fs.Int("n", 30, "rows for 'pibe top'")
	funcName := fs.String("func", "", "function name for 'pibe dump'")
	fleetRunners := fs.Int("fleet", 4, "fleet mode: concurrent profile collectors per epoch")
	fleetShards := fs.Int("fleet-shards", 8, "fleet aggregator shard (lock stripe) count")
	fleetEpochs := fs.Int("fleet-epochs", 3, "fleet profiling epochs")
	driftThreshold := fs.Float64("drift-threshold", 0.75, "rebuild when hot-set overlap falls below this (0 disables)")
	fleetMix := fs.String("fleet-mix", "apache,nginx", "comma-separated fleet workload mix")
	fleetDecay := fs.Float64("fleet-decay", 0.5, "per-epoch count decay factor in (0, 1] (1 disables)")
	canary := fs.Int("canary", 1, "epochs a rebuilt candidate serves before the promotion decision")
	regressionBudget := fs.Float64("regression-budget", 0.05, "canary latency regression tolerated vs the incumbent")
	stateDir := fs.String("state", "", "crash-safe state: fleet or ingest checkpoint directory, or sweep state file (resumes if present)")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate (0 disables chaos mode)")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-injection seed")
	chaosMax := fs.Int("chaos-max", 0, "cap on total injected faults (0 = unlimited)")
	lenient := fs.Bool("lenient", false, "salvage corrupt/truncated -profile inputs instead of failing")
	measureWorkers := fs.Int("measure-workers", runtime.GOMAXPROCS(0),
		"goroutines measurement repetitions run on (below 2: the calling goroutine; results are identical for every value)")
	engineName := fs.String("engine", "compiled",
		"execution engine: compiled (threaded code) or interp (the per-event reference loop; cycle-exact, slower)")
	sweepGrid := fs.String("sweep-grid", "0,50,90,99,99.9,99.99,99.9999",
		"comma-separated budget grid in percent, applied to both sweep axes")
	sweepCombos := fs.String("sweep-combos", "retpoline,ret-retpoline,lvi-cfi,fineibt,pac-cfi,verifence,all",
		"comma-separated defense combos to sweep")
	sweepKnee := fs.Float64("sweep-knee", 1.1,
		"knee tolerance: least aggressive cell within this factor of the best slowdown")
	sweepKernelScale := fs.Int("sweep-kernel-scale", 1,
		"synthesize an S×-scaled kernel (S×2200 cold functions, S-1 helper layers)")
	sweepTimings := fs.Bool("sweep-timings", false,
		"record wall-clock build times in BENCH_sweep.json (makes it non-reproducible)")
	sweepShards := fs.Int("sweep-shards", 1,
		"partition the sweep grid across this many cooperating processes")
	sweepShard := fs.Int("sweep-shard", 0,
		"this process's shard index in [0, -sweep-shards)")
	ingestTenants := fs.Int("tenants", 64, "ingest mode: tenant (fleet) count")
	ingestKernels := fs.Int("kernels", 16384, "ingest mode: reporting kernels per tenant")
	ingestRounds := fs.Int("ingest-rounds", 3, "ingest mode: reporting rounds")
	ingestWorkers := fs.Int("ingest-workers", 0,
		"ingest submission/merge worker count (0 = GOMAXPROCS; never changes the result)")
	ingestBatch := fs.Int("ingest-batch", 64, "ingest deltas per merged batch")
	ingestQueue := fs.Int("ingest-queue", 64, "ingest merge-queue depth (batches)")
	ingestShed := fs.Bool("ingest-shed", false,
		"shed batches with an overload fault when the merge queue is full (default: block)")
	ingestIdleEvict := fs.Int("ingest-idle-evict", 4,
		"evict a tenant after this many idle rounds (0 selects the default 4)")
	ingestTripFaults := fs.Uint64("ingest-trip-faults", 8,
		"tenant faults (poison + throttle) in one round that trip its circuit breaker")
	ingestOpenRounds := fs.Int("ingest-open-rounds", 2,
		"base quarantine length in rounds (consecutive re-trips double it, capped)")
	ingestRate := fs.Int("ingest-rate", 0,
		"per-tenant admission rate in deltas/round (0 = unlimited; gives up byte-determinism)")
	ingestBurst := fs.Int("ingest-burst", 0,
		"per-tenant admission burst cap (default: the rate)")
	ingestDriftFloor := fs.Float64("ingest-drift-floor", 0,
		"mark a tenant degraded when its round drift falls below this (0 disables)")
	ingestPoison := fs.Bool("ingest-poison", false,
		"add a poison tenant submitting malformed deltas every round (isolation demo)")
	ingestPoisonFrom := fs.Int("ingest-poison-from", 0,
		"first round the poison tenant reports in")
	tenantShards := fs.Int("tenant-shards", 4, "lock stripes per tenant aggregator")
	globalShards := fs.Int("global-shards", 16, "lock stripes in the global aggregator")
	sitesPerDelta := fs.Int("sites-per-delta", 12, "site records per simulated kernel delta")
	ingestMix := fs.String("ingest-mix", "lmbench,apache,nginx,dbench",
		"comma-separated tenant base-profile flavors")
	snapshotOut := fs.String("snapshot-out", "",
		"write the final aggregate profile here: ingest's global one, fleet's last drift snapshot (the byte-identical resume artifact)")
	fs.Parse(os.Args[2:])

	engine, err := pibe.ParseEngine(*engineName)
	check(err)

	if cmd == "ingest" {
		path := *out
		if path == "" {
			path = "BENCH_ingest.json"
		}
		check(runIngest(ingestOpts{
			engine:        engine,
			seed:          *seed,
			tenants:       *ingestTenants,
			kernels:       *ingestKernels,
			rounds:        *ingestRounds,
			workers:       *ingestWorkers,
			batch:         *ingestBatch,
			queue:         *ingestQueue,
			shed:          *ingestShed,
			idleEvict:     *ingestIdleEvict,
			tripFaults:    *ingestTripFaults,
			openRounds:    *ingestOpenRounds,
			rate:          *ingestRate,
			burst:         *ingestBurst,
			driftFloor:    *ingestDriftFloor,
			poison:        *ingestPoison,
			poisonFrom:    *ingestPoisonFrom,
			tenantShards:  *tenantShards,
			globalShards:  *globalShards,
			sitesPerDelta: *sitesPerDelta,
			mix:           *ingestMix,
			stateDir:      *stateDir,
			jsonPath:      path,
			snapshotPath:  *snapshotOut,
		}))
		return
	}

	if cmd == "sweep" || cmd == "sweep-merge" || cmd == "sweep-diff" {
		// The sweep family builds its own (possibly scaled) suite or
		// reads prior state; skip the default system construction below.
		path := *out
		if path == "" {
			path = "BENCH_sweep.json"
		}
		switch cmd {
		case "sweep":
			check(runSweep(sweepOpts{
				engine:         engine,
				seed:           *seed,
				grid:           *sweepGrid,
				combos:         *sweepCombos,
				kneeFactor:     *sweepKnee,
				kernelScale:    *sweepKernelScale,
				timings:        *sweepTimings,
				measureWorkers: *measureWorkers,
				jsonPath:       path,
				statePath:      *stateDir,
				shards:         *sweepShards,
				shard:          *sweepShard,
				chaosRate:      *chaosRate,
				chaosSeed:      *chaosSeed,
				chaosMax:       *chaosMax,
			}))
		case "sweep-merge":
			check(runSweepMerge(fs.Args(), path))
		case "sweep-diff":
			check(runSweepDiff(fs.Args()))
		}
		return
	}

	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: *seed})
	check(err)
	sys.SetMeasureWorkers(*measureWorkers)
	sys.SetEngine(engine)

	var inject *resilience.Injector
	if *chaosRate > 0 {
		inject = sys.InjectFaults(*chaosSeed, pibe.UniformFaultRates(*chaosRate), *chaosMax)
		defer func() {
			fmt.Fprintf(os.Stderr, "pibe: chaos: injected faults: %s\n", inject.Summary())
		}()
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}

	switch cmd {
	case "top":
		p, err := sys.Profile(parseFlavor(*workloadName), 5)
		check(err)
		fmt.Fprint(w, p.TopReport(*topN))

	case "dump":
		if *funcName == "" {
			fmt.Fprintln(os.Stderr, "pibe dump: -func is required")
			os.Exit(2)
		}
		img, err := sys.Build(pibe.BuildConfig{})
		check(err)
		out := img.DumpFunction(*funcName)
		if out == "" {
			fmt.Fprintf(os.Stderr, "pibe dump: no function %q\n", *funcName)
			os.Exit(1)
		}
		fmt.Fprint(w, out)

	case "profile":
		p := collectProfile(sys, parseFlavor(*workloadName))
		_, err = p.WriteTo(w)
		check(err)

	case "build", "measure":
		var profile *pibe.Profile
		if *profilePath != "" {
			f, err := os.Open(*profilePath)
			check(err)
			if *lenient {
				p, sal, rerr := pibe.ReadProfileLenient(f)
				if sal != nil && !sal.Clean() {
					fmt.Fprintf(os.Stderr, "pibe: %s\n", sal)
				}
				profile, err = p, rerr
			} else {
				profile, err = pibe.ReadProfile(f)
			}
			f.Close()
			check(err)
		} else if *icpBudget > 0 || *inlineBudget > 0 {
			// No profile supplied: collect one in-process.
			profile = collectProfile(sys, pibe.LMBench)
		}
		cfg := pibe.BuildConfig{
			Profile:      profile,
			Defenses:     parseDefenses(*defenses),
			JumpSwitches: *jumpswitches,
			Optimize: pibe.OptimizeConfig{
				ICPBudget:      *icpBudget,
				InlineBudget:   *inlineBudget,
				LaxBudget:      *lax,
				UseLLVMInliner: *llvmInliner,
			},
		}
		img, err := sys.Build(cfg)
		check(err)
		st := img.Stats()
		fmt.Fprintf(w, "image built: %d functions, %d bytes, %d indirect calls (%d defended, %d vulnerable)\n",
			st.Funcs, st.Bytes, st.IndirectCalls, img.Census.DefendedICalls, img.Census.VulnICalls)
		if icp := img.Opt.ICP; icp != nil {
			fmt.Fprintf(w, "icp: %d targets promoted at %d sites (%.2f%% of candidate weight)\n",
				icp.PromotedTargets, icp.PromotedSites, 100*float64(icp.PromotedWeight)/float64(icp.TotalWeight+1))
		}
		if inl := img.Opt.Inline; inl != nil {
			fmt.Fprintf(w, "inlining: %d of %d candidate sites elided (%.1f%% of return weight)\n",
				inl.Inlined, inl.Candidates, 100*inl.ElidedReturnFraction())
		}
		if *security {
			rep := img.SecurityReport()
			fmt.Fprintf(w, "security: icalls spectre-v2 %d/%d, lvi %d/%d; returns ret2spec %d/%d; ijumps %d/%d\n",
				rep.ICallsSpectreV2, rep.TotalICalls, rep.ICallsLVI, rep.TotalICalls,
				rep.ReturnsRet2spec, rep.TotalReturns, rep.IJumpsSpectreV2, rep.TotalIJumps)
		}
		if cmd == "measure" || *measure {
			lat, err := img.MeasureLMBench(pibe.LMBench)
			check(err)
			fmt.Fprintf(w, "%-14s %10s\n", "test", "latency µs")
			for _, l := range lat {
				fmt.Fprintf(w, "%-14s %10.2f\n", l.Bench, l.Micros)
			}
		}

	case "fleet":
		// Baseline: a profile from -profile, or an in-process LMBench run
		// (the paper's training workload) — deliberately mismatched with
		// the default apache,nginx fleet mix so drift is observable.
		var baseline *pibe.Profile
		if *profilePath != "" {
			f, err := os.Open(*profilePath)
			check(err)
			baseline, err = pibe.ReadProfile(f)
			f.Close()
			check(err)
		} else {
			baseline = collectProfile(sys, pibe.LMBench)
		}
		cfg := pibe.FleetConfig{
			Runners:          *fleetRunners,
			Shards:           *fleetShards,
			Epochs:           *fleetEpochs,
			Seed:             *seed,
			Decay:            *fleetDecay,
			Mix:              parseMix(*fleetMix),
			DriftThreshold:   *driftThreshold,
			CanaryEpochs:     *canary,
			RegressionBudget: *regressionBudget,
			StateDir:         *stateDir,
			Build: pibe.BuildConfig{
				Defenses: parseDefenses(*defenses),
				Optimize: pibe.OptimizeConfig{
					ICPBudget:    *icpBudget,
					InlineBudget: *inlineBudget,
					LaxBudget:    *lax,
				},
			},
			Measure:    *measure,
			MeasureApp: parseMix(*fleetMix)[0],
		}
		fl, err := sys.NewFleet(baseline, cfg)
		check(err)
		res, err := fl.Run()
		if err != nil && res != nil && res.Partial {
			fmt.Fprintf(os.Stderr, "pibe: fleet degraded to a partial aggregate: %v\n", err)
		} else {
			check(err)
		}
		if res.StartEpoch > 0 {
			fmt.Fprintf(w, "resumed from checkpoint at epoch %d\n", res.StartEpoch)
		}
		for _, e := range res.Epochs {
			fmt.Fprintf(w, "epoch %d: merged %d/%d (aborted %d, failed %d)  sites %d  ops %d  overlap %.3f",
				e.Epoch, e.Merged, e.Merged+e.Failed, e.Aborted, e.Failed, e.Sites, e.Ops, e.Overlap)
			if e.Rebuilt {
				fmt.Fprint(w, "  REBUILT")
			}
			if e.Canary {
				fmt.Fprint(w, "  CANARY")
			}
			if e.Promoted {
				fmt.Fprint(w, "  PROMOTED")
			}
			if e.Rejected != "" {
				fmt.Fprintf(w, "  rejected=%q", e.Rejected)
			}
			if e.CoolingDown > 0 {
				fmt.Fprintf(w, "  cooldown=%d", e.CoolingDown)
			}
			if e.RebuildErr != "" {
				fmt.Fprintf(w, "  rebuild-error=%q", e.RebuildErr)
			}
			if e.RequestCycles > 0 {
				fmt.Fprintf(w, "  req-cycles %.0f", e.RequestCycles)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "fleet: %d epochs, %d promoted, %d rejected, %d build-failures, partial=%v\n",
			len(res.Epochs), res.Rebuilds, res.Rejections, res.RebuildFailures, res.Partial)
		if *snapshotOut != "" && res.Final != nil {
			check(writeProfileFile(*snapshotOut, res.Final))
		}

	default:
		usage()
	}
}

// parseFlavor parses one workload name: lmbench, apache, nginx or
// dbench. Any other name exits 2.
func parseFlavor(name string) pibe.Workload {
	switch name {
	case "lmbench":
		return pibe.LMBench
	case "apache":
		return pibe.Apache
	case "nginx":
		return pibe.Nginx
	case "dbench":
		return pibe.DBench
	}
	fmt.Fprintf(os.Stderr, "pibe: unknown workload %q (want lmbench, apache, nginx or dbench)\n", name)
	os.Exit(2)
	return 0
}

// parseMix parses a comma-separated flavor list ("apache,nginx");
// an empty list is LMBench alone.
func parseMix(s string) []pibe.Workload {
	var mix []pibe.Workload
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			mix = append(mix, parseFlavor(name))
		}
	}
	if len(mix) == 0 {
		mix = []pibe.Workload{pibe.LMBench}
	}
	return mix
}

// collectProfile runs an in-process profiling run, degrading to the
// partial profile (with a stderr warning) when the run aborts under
// injected or organic faults.
func collectProfile(sys *pibe.System, flavor pibe.Workload) *pibe.Profile {
	p, err := sys.Profile(flavor, 5)
	if err != nil && p != nil && pibe.IsPartialProfileErr(err) {
		fmt.Fprintf(os.Stderr, "pibe: profiling aborted, continuing with partial profile: %v\n", err)
		return p
	}
	check(err)
	return p
}

// writeProfileFile writes a profile's canonical serialization to path.
func writeProfileFile(path string, p io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := p.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseDefenses(s string) pibe.Defenses {
	switch s {
	case "all":
		return pibe.AllDefenses
	case "retpolines":
		return pibe.Defenses{Retpolines: true}
	case "ret-retpolines":
		return pibe.Defenses{RetRetpolines: true}
	case "lvi":
		return pibe.Defenses{LVICFI: true}
	case "fineibt":
		return pibe.Defenses{FineIBT: true}
	case "pac-cfi":
		return pibe.Defenses{PACCFI: true}
	case "verifence":
		return pibe.Defenses{VeriFence: true}
	case "none":
		return pibe.Defenses{}
	default:
		fmt.Fprintf(os.Stderr, "pibe: unknown defense set %q\n", s)
		os.Exit(2)
	}
	return pibe.Defenses{}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pibe <profile|build|measure|fleet|top|dump|sweep|sweep-merge|sweep-diff|ingest> [flags]")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pibe:", err)
		os.Exit(1)
	}
}
