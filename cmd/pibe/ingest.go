package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	pibe "repro"
	"repro/internal/ingest"
	"repro/internal/prof"
)

// ingestOpts carries the `pibe ingest` flag values.
type ingestOpts struct {
	seed          int64
	tenants       int
	kernels       int
	rounds        int
	workers       int
	batch         int
	queue         int
	shed          bool
	idleEvict     int
	tripFaults    uint64
	openRounds    int
	rate          int
	burst         int
	driftFloor    float64
	poison        bool
	poisonFrom    int
	tenantShards  int
	globalShards  int
	sitesPerDelta int
	mix           string
	stateDir      string
	jsonPath      string
	snapshotPath  string
}

// runIngest drives the multi-tenant profile-ingestion service with a
// simulated population of tenants × kernels reporting kernels: base
// profiles are collected in-process from the -ingest-mix workload
// flavors, each tenant's kernels report deltas drawn from their base's
// rotating hot window, and the service batches, merges and checkpoints
// round by round. The final global aggregate is written to
// -snapshot-out (its serialization is byte-identical for every worker
// count and across -state crash/resume), and the machine-readable
// benchmark report to opts.jsonPath.
func runIngest(opts ingestOpts) error {
	sys, err := pibe.NewSyntheticKernel(pibe.KernelConfig{Seed: opts.seed})
	if err != nil {
		return err
	}
	start := time.Now()
	var bases []ingest.Base
	for _, flavor := range parseMix(opts.mix) {
		p, err := sys.Profile(flavor, 3)
		if err != nil {
			if p != nil && pibe.IsPartialProfileErr(err) {
				fmt.Fprintf(os.Stderr, "pibe ingest: partial base profile for %v: %v\n", flavor, err)
			} else {
				return err
			}
		}
		bases = append(bases, ingest.Base{Name: flavor.String(), Prof: p.Raw()})
	}
	fmt.Fprintf(os.Stderr, "pibe ingest: %d base profiles collected in %v\n",
		len(bases), time.Since(start).Round(time.Millisecond))

	workers := opts.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	simCfg := ingest.SimConfig{
		Tenants: opts.tenants, Kernels: opts.kernels, Rounds: opts.rounds,
		Workers: workers, SitesPerDelta: opts.sitesPerDelta,
		Seed: opts.seed, Bases: bases,
	}
	if opts.poison {
		simCfg.Poison = &ingest.PoisonConfig{FromRound: opts.poisonFrom}
	}
	// The sanitation universe is the union of the base profiles — every
	// site a simulated kernel can legitimately report. The poison
	// tenant's sites live outside it, so its deltas are doubly malformed.
	universe := prof.New()
	for _, b := range bases {
		universe.Merge(b.Prof)
	}
	svcCfg := ingest.Config{
		TenantShards: opts.tenantShards,
		GlobalShards: opts.globalShards,
		BatchSize:    opts.batch,
		QueueDepth:   opts.queue,
		Workers:      workers,
		Shed:         opts.shed,
		IdleEvict:    opts.idleEvict,
		TripFaults:   opts.tripFaults,
		OpenRounds:   opts.openRounds,
		Seed:         opts.seed,
		TenantRate:   opts.rate,
		TenantBurst:  opts.burst,
		DriftFloor:   opts.driftFloor,
		Universe:     universe,
		StateDir:     opts.stateDir,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	simCfg.RoundHook = func(round int, svc *ingest.Service) error {
		st := svc.Stats()
		fmt.Printf("round %d: deltas %d  batches %d  tenants %d  global-sites %d  evict %d  resurrect %d  shed %d  merge-p99 %v\n",
			round, st.Deltas, st.Batches, st.LiveTenants, st.GlobalSites,
			st.Evictions, st.Resurrections, st.ShedDeltas, st.MergeP99)
		if st.Poison+st.QuarantineDropped+st.Throttled+st.Trips > 0 {
			fmt.Printf("round %d: health %s  poison %d  quarantine-dropped %d  throttled %d  trips %d  heals %d\n",
				round, healthSummary(st.Health), st.Poison, st.QuarantineDropped,
				st.Throttled, st.Trips, st.Heals)
		}
		return nil
	}

	sim, err := ingest.NewSim(simCfg)
	if err != nil {
		return err
	}
	svcCfg.Fingerprint = sim.Fingerprint(svcCfg)
	svc, err := ingest.Open(svcCfg)
	if err != nil {
		return err
	}
	startRound := svc.Round()
	if startRound > 0 {
		fmt.Printf("resumed from checkpoint at round %d\n", startRound)
	}

	runStart := time.Now()
	if err := sim.Run(svc); err != nil {
		svc.Close()
		return err
	}
	wall := time.Since(runStart)
	if err := svc.Close(); err != nil {
		return err
	}

	rep := ingest.BuildReport(simCfg, svc, startRound, wall)
	data, err := rep.WriteJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(opts.jsonPath, data, 0o644); err != nil {
		return err
	}

	if opts.snapshotPath != "" {
		if err := writeProfileFile(opts.snapshotPath, svc.GlobalSnapshot()); err != nil {
			return err
		}
	}

	fmt.Printf("ingest: %d tenants × %d kernels = %d simulated kernels, %d rounds (from %d)\n",
		rep.Tenants, rep.KernelsPerTenant, rep.SimulatedKernels, rep.Rounds, rep.StartRound)
	fmt.Printf("ingest: %d deltas this process in %.1fs = %.0f deltas/sec  (total %d, shed %d)\n",
		rep.DeltasThisProcess, rep.WallSeconds, rep.DeltasPerSec, rep.DeltasTotal, rep.ShedDeltas)
	fmt.Printf("ingest: merge latency p50 %.1fµs p99 %.1fµs max %.1fµs, queue high-water %d\n",
		rep.MergeP50Micros, rep.MergeP99Micros, rep.MergeMaxMicros, rep.QueueHighWater)
	fmt.Printf("ingest: health %s  poison %d  quarantine-dropped %d  throttled %d  trips %d  heals %d\n",
		healthSummary(rep.HealthCounts), rep.Poison, rep.QuarantineDropped,
		rep.Throttled, rep.Trips, rep.Heals)
	fmt.Printf("ingest: global %d sites, snapshot %s; report %s\n",
		rep.GlobalSites, rep.SnapshotHash, opts.jsonPath)
	return nil
}

// healthSummary renders a health census compactly and in a stable
// order, e.g. "63 healthy, 1 quarantined".
func healthSummary(census map[string]int) string {
	var parts []string
	for _, state := range []string{"healthy", "degraded", "quarantined", "probation"} {
		if n := census[state]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, state))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
