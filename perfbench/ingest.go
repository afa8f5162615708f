package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/prof"
)

// The ingest workload: each op is one ingest.Service.Submit of one
// Sim.Delta. The benchmark drives the rounds itself from one goroutine,
// into a service with one merge worker, and runs EndRound at every
// barrier over one whole duty cycle, so idle decay runs. Only ingest,
// fleet.Aggregator and prof merging work here: no interpreter, no cpu
// model, no passes. The shape is `pibe ingest`'s own (64 tenants, base
// profiles at scale 3, the union of the bases as the sanitation
// universe, default service knobs); only the kernels per tenant shrink
// so that a run fits its time.

const (
	// ingestRate is the nominal deltas per second on the reference box.
	ingestRate = 125_000.0
	// ingestTenants is `pibe ingest`'s default tenant count; every fourth
	// tenant reports two rounds on, two off.
	ingestTenants = 64
	// baseScale is the opsScale `pibe ingest` collects its bases at.
	baseScale = 3
	// dutyCycle is the rounds of one intermittent tenant's on-off cycle.
	dutyCycle = 4
	// tracedKernels caps the kernels per tenant of a traced run, whose
	// spans stay in memory.
	tracedKernels = 512
	// warmupKernels caps the kernels per tenant the warm-up round ingests.
	warmupKernels = 512
	// globalShards is ingest.Config's default global stripe count.
	globalShards = 16
)

type ingestW struct {
	cfg      config
	simCfg   ingest.SimConfig
	universe *prof.Profile // the union of the bases, as `pibe ingest` sets it
	sim      *ingest.Sim
	svc      *ingest.Service
	snap     []byte       // the untraced loop's global snapshot
	stats    ingest.Stats // the last loop's service statistics
	flatNS   float64      // Sim.FlatMerge's cost per delta
}

func (w *ingestW) workers() string { return "2 (one submitter, one merge worker)" }

func (w *ingestW) close() {
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
}

func (w *ingestW) open() (*ingest.Service, error) {
	return ingest.Open(ingest.Config{Workers: 1, Seed: w.cfg.seed, Universe: w.universe})
}

func (w *ingestW) setup() error {
	w.close()
	sys, err := newSystem()
	if err != nil {
		return err
	}
	var bases []ingest.Base
	w.universe = prof.New()
	for _, f := range profileFlavors {
		p, err := sys.Profile(f, baseScale)
		if err != nil {
			return fmt.Errorf("%s base profile: %w", f, err)
		}
		bases = append(bases, ingest.Base{Name: f.String(), Prof: p.Raw()})
		w.universe.Merge(p.Raw())
	}
	w.simCfg = ingest.SimConfig{
		Tenants: ingestTenants, Kernels: 1, Rounds: dutyCycle,
		Workers: 1, Seed: w.cfg.seed, Bases: bases,
	}
	if w.sim, err = ingest.NewSim(w.simCfg); err != nil {
		return err
	}
	// Size the kernels per tenant from the deltas one kernel reports over
	// the duty cycle.
	perKernel := 0
	for r := 0; r < dutyCycle; r++ {
		for t := 0; t < ingestTenants; t++ {
			if w.sim.Active(t, r) {
				perKernel++
			}
		}
	}
	kernels := max(int(math.Round(float64(w.cfg.seconds)*ingestRate/float64(perKernel))), 1)
	switch {
	case w.cfg.tiny:
		kernels = 4
	case w.cfg.trace:
		kernels = min(kernels, tracedKernels)
	}
	w.simCfg.Kernels = kernels
	if w.sim, err = ingest.NewSim(w.simCfg); err != nil {
		return err
	}
	w.svc, err = w.open()
	return err
}

// warmup ingests the first round of up to warmupKernels kernels per
// tenant into a scratch service, which creates every tenant.
func (w *ingestW) warmup() error {
	svc, err := w.open()
	if err != nil {
		return err
	}
	defer svc.Close()
	for t := 0; t < w.simCfg.Tenants; t++ {
		for k := 0; k < min(w.simCfg.Kernels, warmupKernels); k++ {
			if err := svc.Submit(w.sim.TenantID(t), w.sim.Delta(t, k, 0)); err != nil {
				return err
			}
		}
	}
	return svc.EndRound()
}

func (w *ingestW) loop(l *opLog, tr *tracer) error {
	svc := w.svc
	if tr != nil {
		var err error
		if svc, err = w.open(); err != nil {
			return err
		}
	}
	w.svc = nil
	defer svc.Close()
	l.begin()
	for r := 0; r < w.simCfg.Rounds; r++ {
		for t := 0; t < w.simCfg.Tenants; t++ {
			if !w.sim.Active(t, r) {
				continue
			}
			id := w.sim.TenantID(t)
			for k := 0; k < w.simCfg.Kernels; k++ {
				if tr == nil {
					d := w.sim.Delta(t, k, r)
					l.do(func() error { return svc.Submit(id, d) })
					continue
				}
				tr.setOp(len(l.lat))
				l.do(func() error {
					return tr.span("op", func() error {
						var d *prof.Profile
						tr.span("ingest.gen", func() error {
							d = w.sim.Delta(t, k, r)
							return nil
						})
						return tr.span("ingest.submit", func() error { return svc.Submit(id, d) })
					})
				})
			}
		}
		tr.setOp(-1)
		if err := tr.span("ingest.endround", svc.EndRound); err != nil {
			return fmt.Errorf("round %d barrier: %w", r, err)
		}
	}
	l.end()
	snap := serialize(svc.GlobalSnapshot())
	w.stats = svc.Stats()
	if err := svc.Close(); err != nil {
		return err
	}
	if tr == nil {
		w.snap = snap
	} else if !bytes.Equal(snap, w.snap) {
		l.failAll("the traced loop's global snapshot differs from the untraced loop's")
	}
	return nil
}

func (w *ingestW) verify(l *opLog) error {
	start := time.Now()
	ref := w.sim.FlatMerge()
	w.flatNS = frac(float64(time.Since(start).Nanoseconds()), float64(len(l.lat)))
	if w.cfg.corrupt {
		ref.Ops++
	}
	if !bytes.Equal(serialize(ref), w.snap) {
		l.failAll("the global snapshot differs from Sim.FlatMerge")
	}
	return nil
}

// aggregatorAddNS times fleet.Aggregator.Add in isolation over a sample
// of the run's deltas, into a fresh aggregator striped like the
// service's global one; the fastest of three passes, in ns per delta.
func (w *ingestW) aggregatorAddNS() float64 {
	var sample []*prof.Profile
	for r := 0; r < w.simCfg.Rounds && len(sample) < 4096; r++ {
		for t := 0; t < w.simCfg.Tenants && len(sample) < 4096; t++ {
			for k := 0; k < w.simCfg.Kernels && len(sample) < 4096 && w.sim.Active(t, r); k++ {
				sample = append(sample, w.sim.Delta(t, k, r))
			}
		}
	}
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		agg := fleet.NewAggregator(globalShards, 1)
		start := time.Now()
		for _, d := range sample {
			agg.Add(d)
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(len(sample)))
	}
	return best
}

func (w *ingestW) layers(tr *tracer, l *opLog) map[string]float64 {
	tot := tr.totals()
	return map[string]float64{
		"ingest.endround_ms":           tot["ingest.endround"].meanMS(),
		"ingest.queue_high_water":      float64(w.stats.QueueHighWater),
		"ingest.gen_share":             frac(float64(tot["ingest.gen"].dur), float64(l.wall)),
		"fleet.merge_ns_per_delta":     w.aggregatorAddNS(),
		"prof.flat_merge_ns_per_delta": w.flatNS,
		// Service.Stats reports merge latency as log2-bucketed quantiles
		// about 19% wide, so these read alike run after run: printed, and
		// kept out of the JSON.
		"ingest.merge_p50_us": float64(w.stats.MergeP50) / 1e3,
		"ingest.merge_p99_us": float64(w.stats.MergeP99) / 1e3,
	}
}
