package pibe_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/ingest"
	"repro/internal/ir"
	profpkg "repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

// The chaos suite runs the full profile→optimize→harden→measure pipeline
// under a matrix of injected faults and asserts the graceful-degradation
// contract: zero panics, every built image passes ir.Verify, transient
// measurement faults are absorbed by retry/backoff, aborted profiling
// runs yield usable partial profiles, and measured latencies stay within
// a per-scenario tolerance of the fault-free control run.

// chaosBenches is the benchmark subset each scenario measures.
var chaosBenches = []string{"read", "open"}

// chaosScenario is one cell of the fault matrix.
type chaosScenario struct {
	name string
	// rates arms the system injector for profiling/measurement chaos.
	rates pibe.FaultRates
	// maxFaults caps injected faults so retries are guaranteed to converge.
	maxFaults int
	// mangle post-processes the serialized clean profile (torn writes,
	// corrupt records) before it is lenient-read back.
	mangle pibe.FaultRates
	// zeroWeight replaces the profile with an empty (all-zero-weight) one.
	zeroWeight bool
	// wantAbort requires the profiling run to abort with a usable
	// non-empty partial profile.
	wantAbort bool
	// tol bounds the measured-latency ratio vs the fault-free control:
	// each benchmark must land within [control/tol, control*tol].
	tol float64
}

func chaosMatrix() []chaosScenario {
	return []chaosScenario{
		{name: "fault-free-control", tol: 1.0001},
		{name: "interp-trap", rates: pibe.FaultRates{Trap: 2e-4}, wantAbort: true, tol: 4},
		{name: "fuel-exhaustion", rates: pibe.FaultRates{Fuel: 2e-5}, wantAbort: true, tol: 4},
		{name: "depth-exhaustion", rates: pibe.FaultRates{Depth: 2e-4}, wantAbort: true, tol: 4},
		{name: "profile-truncation", mangle: pibe.FaultRates{Truncate: 1}, tol: 4},
		{name: "corrupt-profile-record", mangle: pibe.FaultRates{Corrupt: 1}, tol: 1.5},
		// Fault caps stay below DefaultRetry's 4 attempts so the final
		// attempt is guaranteed fault-free, and a retried measurement
		// equals the control exactly (tol 1).
		{name: "transient-measure-failure", rates: pibe.FaultRates{Measure: 0.4}, maxFaults: 3, tol: 1},
		{name: "zero-weight-profile", zeroWeight: true, tol: 10},
		{name: "combined-trap-and-transients", rates: pibe.FaultRates{Trap: 1e-4, Measure: 0.4}, maxFaults: 3, wantAbort: true, tol: 4},
	}
}

// chaosBuild is the all-defenses optimized configuration every scenario
// builds.
func chaosBuild(p *pibe.Profile) pibe.BuildConfig {
	return pibe.BuildConfig{
		Profile:  p,
		Defenses: pibe.AllDefenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999, LaxBudget: 0.99},
	}
}

// runChaosPipeline executes one scenario end to end and returns the
// measured latencies keyed by benchmark.
func runChaosPipeline(t *testing.T, sys *pibe.System, sc chaosScenario) map[string]float64 {
	t.Helper()
	var inject *resilience.Injector
	if sc.rates != (pibe.FaultRates{}) {
		inject = sys.InjectFaults(int64(1000+len(sc.name)), sc.rates, sc.maxFaults)
	}
	defer sys.InjectFaults(0, pibe.FaultRates{}, 0)

	// Phase 1: profile, possibly aborting into a partial profile.
	p, err := sys.Profile(pibe.LMBench, 2)
	if sc.wantAbort {
		if err == nil || !pibe.IsPartialProfileErr(err) {
			t.Fatalf("expected an aborted profiling run, got err=%v", err)
		}
		if p == nil || len(p.Raw().Sites) == 0 {
			t.Fatalf("aborted profiling run did not yield a non-empty partial profile (err=%v)", err)
		}
	} else if err != nil {
		t.Fatalf("Profile: %v", err)
	}

	// Phase 2: optional serialization damage (torn write / corrupt
	// record) salvaged by the lenient reader.
	if sc.mangle != (pibe.FaultRates{}) {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		mangler := resilience.NewInjector(7, sc.mangle)
		damaged, kinds := mangler.MangleProfile(buf.Bytes())
		if len(kinds) == 0 {
			t.Fatal("mangler applied no damage")
		}
		salvaged, sal, err := pibe.ReadProfileLenient(bytes.NewReader(damaged))
		if err != nil {
			t.Fatalf("ReadProfileLenient: %v", err)
		}
		if sal.Clean() {
			t.Fatalf("damaged profile read back clean; salvage = %s", sal)
		}
		if sal.Kept == 0 || len(salvaged.Raw().Sites) == 0 {
			t.Fatalf("nothing salvaged from damaged profile: %s", sal)
		}
		p = salvaged
	}
	if sc.zeroWeight {
		empty, err := pibe.ReadProfile(strings.NewReader("pibe-profile v1\nops 0\n"))
		if err != nil {
			t.Fatalf("empty profile: %v", err)
		}
		p = empty
	}

	// Phase 3: build. The image must verify.
	img, err := sys.Build(chaosBuild(p))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := ir.Verify(img.Mod, ir.VerifyOptions{}); err != nil {
		t.Fatalf("built image does not verify: %v", err)
	}

	// Phase 4: measure. Transient faults must be absorbed by retry.
	lats := make(map[string]float64, len(chaosBenches))
	for _, b := range chaosBenches {
		lat, err := img.MeasureBenchmark(pibe.LMBench, b)
		if err != nil {
			t.Fatalf("MeasureBenchmark(%s): %v", b, err)
		}
		if lat.Micros <= 0 || math.IsNaN(lat.Micros) || math.IsInf(lat.Micros, 0) {
			t.Fatalf("MeasureBenchmark(%s) = %v µs", b, lat.Micros)
		}
		lats[b] = lat.Micros
	}

	if sc.rates.Measure > 0 {
		counts := inject.Counts()
		if counts[resilience.KindTransient] == 0 {
			t.Fatal("transient-measure scenario injected no transient faults")
		}
	}
	return lats
}

func TestChaosMatrix(t *testing.T) {
	sys := testSystem(t)
	matrix := chaosMatrix()
	if matrix[0].name != "fault-free-control" {
		t.Fatal("control scenario must run first")
	}
	control := runChaosPipeline(t, sys, matrix[0])
	for _, sc := range matrix[1:] {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			lats := runChaosPipeline(t, sys, sc)
			for _, b := range chaosBenches {
				ratio := lats[b] / control[b]
				if ratio > sc.tol || ratio < 1/sc.tol {
					t.Errorf("%s latency %.3fµs is %.2fx the fault-free control %.3fµs (tolerance %gx)",
						b, lats[b], ratio, control[b], sc.tol)
				}
			}
		})
	}
}

// TestPartialProfileMergeWorkflow covers the degraded-operations path end
// to end: a profiling run aborted by injected faults yields a partial
// profile, that partial merges with a clean profile from another
// workload, and the merged profile drives a build that verifies and
// measures successfully.
func TestPartialProfileMergeWorkflow(t *testing.T) {
	sys := testSystem(t)

	sys.InjectFaults(99, pibe.FaultRates{Trap: 2e-4}, 0)
	partial, err := sys.Profile(pibe.LMBench, 2)
	sys.InjectFaults(0, pibe.FaultRates{}, 0)
	if err == nil || !pibe.IsPartialProfileErr(err) {
		t.Fatalf("expected aborted profiling run, got %v", err)
	}
	if partial == nil || len(partial.Raw().Sites) == 0 {
		t.Fatal("no usable partial profile")
	}
	fe, ok := pibe.IsFault(err)
	if !ok || !fe.Injected || fe.Phase != resilience.PhaseExecute {
		t.Fatalf("abort error lacks structured fault detail: %+v ok=%v", fe, ok)
	}

	clean, err := sys.Profile(pibe.Apache, 2)
	if err != nil {
		t.Fatalf("clean profile: %v", err)
	}
	sitesBefore := len(clean.Raw().Sites)
	clean.Merge(partial)
	if len(clean.Raw().Sites) < sitesBefore {
		t.Fatal("merge lost sites")
	}

	img, err := sys.Build(chaosBuild(clean))
	if err != nil {
		t.Fatalf("Build with merged partial profile: %v", err)
	}
	if err := ir.Verify(img.Mod, ir.VerifyOptions{}); err != nil {
		t.Fatalf("image from merged partial profile does not verify: %v", err)
	}
	lat, err := img.MeasureBenchmark(pibe.LMBench, "read")
	if err != nil || lat.Micros <= 0 {
		t.Fatalf("measurement on merged-profile image: %v (%.3fµs)", err, lat.Micros)
	}
}

// TestFleetUnderFaults runs the continuous-profiling fleet with a seeded
// chaos injector tripping execution traps inside the collectors, and
// asserts the degradation contract: the fleet neither panics nor aborts,
// the run is marked partial with at least one aborted collector, and the
// final aggregate is a usable non-empty partial profile that still
// drives drift detection into the rebuild pipeline. The promotion gates
// then decide freely — a candidate optimized for a trap-truncated
// aggregate may regress the canary and be rolled back — but every
// decision must be recorded.
func TestFleetUnderFaults(t *testing.T) {
	sys := testSystem(t)
	baseline := testProfile(t, sys)

	inj := sys.InjectFaults(1234, pibe.FaultRates{Trap: 3e-4}, 0)
	defer sys.InjectFaults(0, pibe.FaultRates{}, 0)

	fl, err := sys.NewFleet(baseline, pibe.FleetConfig{
		Runners:        4,
		Shards:         4,
		Epochs:         2,
		Seed:           77,
		Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
		DriftThreshold: 0.75,
		Build:          chaosBuild(nil),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatalf("fleet aborted instead of degrading to a partial aggregate: %v", err)
	}
	if inj.Total() == 0 {
		t.Fatal("no faults fired; the scenario tested nothing")
	}
	if !res.Partial {
		t.Fatal("faults fired but the run is not marked partial")
	}
	var aborted int
	for _, e := range res.Epochs {
		aborted += e.Aborted + e.Failed
	}
	if aborted == 0 {
		t.Fatal("no collector aborted under injected traps")
	}
	if res.Final == nil || len(res.Final.Raw().Sites) == 0 {
		t.Fatal("partial aggregate is empty")
	}
	var rebuilt bool
	for _, e := range res.Epochs {
		rebuilt = rebuilt || e.Rebuilt
		if e.Rebuilt && !e.Promoted && e.Rejected == "" && !e.Canary {
			t.Errorf("epoch %d rebuilt but recorded no promotion decision: %+v", e.Epoch, e)
		}
	}
	if !rebuilt {
		t.Errorf("partial aggregate did not drive a drift rebuild attempt; epochs: %+v", res.Epochs)
	}
	if res.Rebuilds+res.Rejections == 0 {
		t.Errorf("rebuild pipeline reached no decision: %+v", res)
	}
}

// TestFleetCrashMidEpochResume kills a crash-safe fleet in the middle of
// an epoch — a measurement blackout makes the epoch's pipeline fail
// after collection but before its checkpoint is written — and asserts
// the crash-safety contract: at most the in-flight epoch is lost, and a
// resume from the same state directory converges on exactly the final
// aggregate, promotion count and image of a run that never crashed.
func TestFleetCrashMidEpochResume(t *testing.T) {
	sys := testSystem(t)
	baseline := testProfile(t, sys)
	mkCfg := func(dir string) pibe.FleetConfig {
		return pibe.FleetConfig{
			Runners:        4,
			Shards:         4,
			Epochs:         2,
			Seed:           42,
			Mix:            []pibe.Workload{pibe.Apache, pibe.Nginx},
			DriftThreshold: 0.75,
			Build:          chaosBuild(nil),
			Measure:        true,
			MeasureApp:     pibe.Apache,
			StateDir:       dir,
		}
	}

	// Crash run: every measurement fails, so epoch 0's trajectory sample
	// errors out mid-epoch, before the checkpoint write.
	dirB := t.TempDir()
	inj := sys.InjectFaults(99, pibe.FaultRates{Measure: 1}, 0)
	flB, err := sys.NewFleet(baseline, mkCfg(dirB))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if _, err := flB.Run(); err == nil {
		t.Fatal("measurement blackout did not crash the run")
	}
	if inj.Total() == 0 {
		t.Fatal("no faults fired; the scenario tested nothing")
	}
	sys.InjectFaults(0, pibe.FaultRates{}, 0)

	// Resume replays the lost epoch and finishes; a reference run that
	// never crashed must be indistinguishable.
	flR, err := sys.NewFleet(baseline, mkCfg(dirB))
	if err != nil {
		t.Fatalf("NewFleet resume: %v", err)
	}
	resR, err := flR.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// At most the in-flight epoch may be lost: the crash happened during
	// epoch 0, so no completed epoch may be checkpointed.
	if resR.StartEpoch != 0 {
		t.Fatalf("crashed epoch was checkpointed as complete: %d", resR.StartEpoch)
	}
	dirC := t.TempDir()
	flC, err := sys.NewFleet(baseline, mkCfg(dirC))
	if err != nil {
		t.Fatalf("NewFleet reference: %v", err)
	}
	resC, err := flC.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if resR.Rebuilds != resC.Rebuilds || resR.Rejections != resC.Rejections {
		t.Errorf("resumed counters (rebuilds %d, rejections %d) != reference (%d, %d)",
			resR.Rebuilds, resR.Rejections, resC.Rebuilds, resC.Rejections)
	}
	var rb, cb bytes.Buffer
	resR.Final.WriteTo(&rb)
	resC.Final.WriteTo(&cb)
	if !bytes.Equal(rb.Bytes(), cb.Bytes()) {
		t.Error("resumed final aggregate differs from the never-crashed run")
	}
	cr, err := flR.Image().MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure resumed image: %v", err)
	}
	cc, err := flC.Image().MeasureRequestCycles(pibe.Apache)
	if err != nil {
		t.Fatalf("measure reference image: %v", err)
	}
	if cr != cc {
		t.Errorf("resumed fleet serves a different image: %.0f vs %.0f request cycles", cr, cc)
	}
}

// TestSweepUnderFaults runs the budget-grid sweep engine under injected
// measurement chaos and asserts its graceful-degradation contract. With
// every measurement failing, the sweep must still complete: each cell
// degrades to a structured failure record (transient, injected) instead
// of aborting the run, the failures are surfaced per combo as FAIL
// entries plus warning notes in the rendered matrices, and knee
// detection excludes them entirely. With a bounded fault burst that
// retry can absorb, the sweep must instead emit a report byte-identical
// to the fault-free run's — retries leave no trace in the output. All
// three runs share one suite: sweep cells are not cached, so each run
// measures its cells afresh under its own injector.
func TestSweepUnderFaults(t *testing.T) {
	suite, err := bench.NewSuiteKernel(pibe.KernelConfig{Seed: 5, ColdFuncs: 300})
	if err != nil {
		t.Fatalf("NewSuiteKernel: %v", err)
	}
	suite.Sys.SetMeasureWorkers(2)
	combos, err := sweep.CombosByName("retpoline,all")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweep.Config{
		ICPGrid:    []float64{0, 0.999},
		InlineGrid: []float64{0, 0.999},
		Combos:     combos,
		// Keep the chaos run fast: exhaust retries without real backoff.
		Retry: resilience.RetryPolicy{Sleep: func(time.Duration) {}},
		Warnf: t.Logf,
	}
	// The clean run also caches the baseline, so the injected faults
	// below land on grid cells (which degrade per-cell) rather than on
	// sweep setup (which is fatal).
	cleanRep, err := sweep.Run(suite, cfg)
	if err != nil {
		t.Fatalf("fault-free Run: %v", err)
	}

	// Total measurement blackout: every cell fails, the sweep survives.
	inj := suite.Sys.InjectFaults(4321, pibe.FaultRates{Measure: 1}, 0)
	rep, err := sweep.Run(suite, cfg)
	suite.Sys.InjectFaults(0, pibe.FaultRates{}, 0)
	if err != nil {
		t.Fatalf("sweep aborted under measurement blackout instead of degrading: %v", err)
	}
	if inj.Total() == 0 {
		t.Fatal("no faults fired; the scenario tested nothing")
	}
	total := len(combos) * 2 * 2
	if rep.FailedCells != total || len(rep.Cells) != total {
		t.Fatalf("FailedCells = %d of %d cells, want all %d failed", rep.FailedCells, len(rep.Cells), total)
	}
	for _, c := range rep.Cells {
		if !c.Failed || !c.FailureInjected || c.FailureKind != string(resilience.KindTransient) {
			t.Fatalf("cell %+v lacks structured transient-injected failure detail", c)
		}
	}
	if len(rep.Knees) != 0 {
		t.Errorf("knees = %+v computed from failed cells, want none", rep.Knees)
	}
	rendered := ""
	for _, tab := range rep.Tables() {
		rendered += tab.Render()
	}
	for _, combo := range combos {
		if !strings.Contains(rendered, "sweep-"+combo.Name) {
			t.Errorf("rendered matrices missing combo %q", combo.Name)
		}
	}
	for _, want := range []string{"FAIL", "warning:", "excluded from knee detection", "[injected]"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered matrices missing %q:\n%s", want, rendered)
		}
	}

	// A bounded burst (fewer faults than retry attempts) is absorbed by
	// the retry loop: no cell degrades, every combo still gets a knee,
	// and every cell equals the fault-free one exactly.
	inj = suite.Sys.InjectFaults(4321, pibe.FaultRates{Measure: 0.4}, 3)
	rep, err = sweep.Run(suite, cfg)
	suite.Sys.InjectFaults(0, pibe.FaultRates{}, 0)
	if err != nil {
		t.Fatalf("Run under bounded faults: %v", err)
	}
	if inj.Total() == 0 {
		t.Fatal("bounded-burst scenario injected nothing")
	}
	if rep.FailedCells != 0 {
		t.Fatalf("bounded burst left %d failed cells, want all absorbed by retry", rep.FailedCells)
	}
	if len(rep.Knees) != len(combos) {
		t.Errorf("knees = %+v, want one per combo", rep.Knees)
	}
	cleanAt := make(map[string]float64, len(cleanRep.Cells))
	for _, c := range cleanRep.Cells {
		cleanAt[fmt.Sprintf("%s/%g/%g", c.Combo, c.ICPBudget, c.InlineBudget)] = c.Geomean
	}
	for _, c := range rep.Cells {
		clean := cleanAt[fmt.Sprintf("%s/%g/%g", c.Combo, c.ICPBudget, c.InlineBudget)]
		if c.Geomean != clean {
			t.Errorf("cell %s icp %g inl %g drifted under absorbed faults: %v vs clean %v",
				c.Combo, c.ICPBudget, c.InlineBudget, c.Geomean, clean)
		}
	}
}

// TestIngestUnderChaos runs the multi-tenant ingestion front under
// concurrent chaos: a poison tenant shipping structurally malformed
// deltas every round while every legitimate tenant floods past its
// admission rate into a merge queue small enough to shed. The bulkhead
// contract under test: the service degrades per-tenant — poison is
// rejected by sanitation, the poison tenant's breaker quarantines it,
// floods are throttled, queue overflow is shed — and the run never
// aborts, panics, or lets a malformed delta reach the global aggregate.
func TestIngestUnderChaos(t *testing.T) {
	base := profpkg.New()
	for i := 0; i < 24; i++ {
		id := ir.SiteID(i + 1)
		if i%2 == 0 {
			base.AddDirect(id, fmt.Sprintf("fn%d", i%6), fmt.Sprintf("callee%d", i), 1)
		} else {
			for j := 0; j < 3; j++ {
				base.AddIndirect(id, fmt.Sprintf("fn%d", i%6), fmt.Sprintf("t%d", j), 20)
			}
		}
	}
	sim, err := ingest.NewSim(ingest.SimConfig{
		Tenants: 8, Kernels: 8, Rounds: 6, Workers: 8,
		SitesPerDelta: 4, Seed: 7,
		Bases:  []ingest.Base{{Name: "chaos", Prof: base}},
		Poison: &ingest.PoisonConfig{Kernels: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ingest.Open(ingest.Config{
		Workers: 4, BatchSize: 2, QueueDepth: 1, Shed: true,
		TenantRate: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if err := sim.Run(svc); err != nil {
		t.Fatalf("ingest aborted under chaos instead of degrading: %v", err)
	}

	st := svc.Stats()
	if st.Poison == 0 {
		t.Error("no poison rejections; the scenario tested nothing")
	}
	if st.Throttled == 0 {
		t.Error("no admission-control refusals under flooding")
	}
	if st.Trips == 0 {
		t.Error("the poison tenant never tripped its breaker")
	}
	for _, reason := range []string{"poison", "throttle"} {
		if st.ShedByReason[reason] == 0 {
			t.Errorf("shed-by-reason breakdown missing %q drops: %v", reason, st.ShedByReason)
		}
	}
	var row ingest.TenantStat
	for _, ts := range st.Tenants {
		if ts.ID == ingest.PoisonTenantID {
			row = ts
		}
	}
	if row.ID == "" {
		t.Fatal("poison tenant missing from stats")
	}
	// A tenant whose every probe faults can never heal: it must be
	// either quarantined or on (doomed) probation, never healthy.
	if row.Health != "quarantined" && row.Health != "probation" {
		t.Errorf("poison tenant health %q after sustained poison, want quarantined/probation", row.Health)
	}
	if row.Trips == 0 || row.Poison == 0 {
		t.Errorf("poison tenant row lost its fault tallies: %+v", row)
	}

	// Nothing malformed may have leaked into the global aggregate.
	snap := svc.GlobalSnapshot()
	if len(snap.Sites) == 0 {
		t.Error("global aggregate is empty; legitimate traffic was lost entirely")
	}
	for id, site := range snap.Sites {
		if site.Caller == "poison_caller" {
			t.Errorf("poison site %d leaked into the global aggregate", id)
		}
	}
}

// TestOptimizeConfigValidation covers the satellite requirement: NaN,
// negative and >1 budgets and negative MaxICPTargets are rejected with
// structured errors instead of silently misbehaving.
func TestOptimizeConfigValidation(t *testing.T) {
	sys := testSystem(t)
	p := testProfile(t, sys)
	bad := []pibe.OptimizeConfig{
		{ICPBudget: math.NaN()},
		{InlineBudget: math.NaN()},
		{LaxBudget: math.NaN()},
		{ICPBudget: -0.1},
		{InlineBudget: 1.5},
		{LaxBudget: -2},
		{ICPBudget: 0.5, MaxICPTargets: -1},
	}
	for _, o := range bad {
		_, err := sys.Build(pibe.BuildConfig{Profile: p, Optimize: o})
		if err == nil {
			t.Errorf("Build accepted invalid OptimizeConfig %+v", o)
			continue
		}
		fe, ok := pibe.IsFault(err)
		if !ok || fe.Kind != resilience.KindConfig {
			t.Errorf("invalid config %+v: error not structured as config fault: %v", o, err)
		}
	}
	// The valid boundary cases still build.
	for _, o := range []pibe.OptimizeConfig{{}, {ICPBudget: 1, InlineBudget: 1, LaxBudget: 1}} {
		if _, err := sys.Build(pibe.BuildConfig{Profile: p, Optimize: o}); err != nil {
			t.Errorf("Build rejected valid OptimizeConfig %+v: %v", o, err)
		}
	}
}
