package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/cpu"
	"repro/internal/interp"
)

// This file implements the measurement driver. A measurement is a plan
// per benchmark (or request script); every repetition of a plan is an
// independent cell with its own derived seed, machine and cpu.Model, so
// cells can execute on a bounded worker pool in any order and still
// merge to exactly the results a one-worker run produces.
//
// Determinism contract: a cell's result is a pure function of
// (Runner config, plan, repetition index). The per-cell seed is derived
// by hashing (seed, key, rep) — never from worker identity or
// scheduling — and predictor and hook state never cross cells, so the
// merge (median per plan, plans in order) is byte-identical for every
// worker count. Chaos faults are drawn on the calling goroutine before
// any cell runs, so they cannot depend on scheduling either.

// repSeed derives the RNG seed for one measurement cell. The derivation
// depends only on the plan's seed and key and the repetition index — not
// on worker count or scheduling.
func repSeed(base int64, bench string, rep int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	io.WriteString(h, bench)
	binary.LittleEndian.PutUint64(buf[:], uint64(rep))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// runCells evaluates fn for every index in [0, n) on a pool of at most
// `workers` goroutines and returns the results in index order. Every
// cell runs to completion; if any fail, the lowest-index error is
// returned, so the error too is independent of scheduling.
func runCells(n, workers int, fn func(i int) (float64, error)) ([]float64, error) {
	out := make([]float64, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// RunCells exposes the measurement driver's cell pool for side-effecting
// fan-outs (the ingest simulator drives millions of reporting kernels
// through it): fn(0) .. fn(n-1) run on at most `workers` goroutines,
// every cell runs to completion, and the lowest-index error is
// returned — the same scheduling-independent contract the measurement
// cells above rely on. Determinism is the caller's half of the bargain:
// fn must be a pure function of its index (plus commutative shared
// state, like profile merges).
func RunCells(n, workers int, fn func(i int) error) error {
	_, err := runCells(n, workers, func(i int) (float64, error) {
		return 0, fn(i)
	})
	return err
}

// plan is one measurement: reps cells, each a fresh machine and cpu
// model seeded from (seed, key, rep) that runs warm passes of script,
// resets the model and runs timed passes. key also names the
// measurement in its fault draws and errors.
type plan struct {
	seed        int64
	key         string
	script      []string // entry functions, run in order once per pass
	warm, timed int
	reps        int
}

// benchPlan is the plan of one LMBench benchmark: as many operations as
// fit the round's cycle volume, a quarter of them (at least 2) to warm.
func (r *Runner) benchPlan(bench string) (plan, error) {
	entry, ok := r.Kernel.Entries[bench]
	if !ok {
		return plan{}, fmt.Errorf("workload: unknown benchmark %q", bench)
	}
	ops := 20
	for _, s := range r.Kernel.Specs {
		if s.Name == bench {
			ops = min(max(int(r.RepCycles/(s.Cycles+1)), 4), 400)
		}
	}
	reps := r.Reps
	if reps <= 0 {
		reps = 5
	}
	return plan{seed: r.Seed, key: bench, script: []string{entry}, warm: max(ops/4, 2), timed: ops, reps: reps}, nil
}

// measureAttempts is how many times run draws a plan's injected faults
// before the plan's transient fault fails the measurement.
const measureAttempts = 4

// run measures plans and returns their medians in plan order. First, on
// the calling goroutine and in plan and repetition order, it draws one
// injected measurement fault per repetition; a plan whose draws fail is
// redrawn from its first repetition, up to measureAttempts times in all,
// with no delay: the machines are simulated, so waiting changes nothing.
// Only once every draw has passed do the cells run, each exactly once,
// on up to r.Workers goroutines.
func (r *Runner) run(plans []plan) ([]float64, error) {
	type ref struct{ plan, rep int }
	var cells []ref
	for i, p := range plans {
		var err error
		for attempt := 0; attempt < measureAttempts; attempt++ {
			if err = r.drawFaults(&p); err == nil {
				break
			}
		}
		if err != nil {
			// The drawn fault names the plan as its Site already.
			return nil, err
		}
		for rep := 0; rep < p.reps; rep++ {
			cells = append(cells, ref{i, rep})
		}
	}
	vals, err := runCells(len(cells), r.Workers, func(i int) (float64, error) {
		p := &plans[cells[i].plan]
		v, err := r.cell(p, cells[i].rep)
		if err != nil {
			return 0, fmt.Errorf("workload: %s: %w", p.key, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	meds := make([]float64, len(plans))
	for i, p := range plans {
		meds[i] = median(vals[:p.reps])
		vals = vals[p.reps:]
	}
	return meds, nil
}

// drawFaults draws one injected measurement fault per repetition of p
// and returns the first that fires.
func (r *Runner) drawFaults(p *plan) error {
	for rep := 0; rep < p.reps; rep++ {
		if err := r.Inject.MeasureFault(p.key); err != nil {
			return err
		}
	}
	return nil
}

// cell runs one repetition of p and returns its cycles per timed pass.
func (r *Runner) cell(p *plan, rep int) (float64, error) {
	mc := interp.NewMachine(r.Prog, repSeed(p.seed, p.key, rep))
	mc.CPU = cpu.New(r.CPU.P)
	mc.Res = r.Res
	mc.RefillRSB = r.RefillRSB
	mc.Engine = r.Engine
	if r.NewHook != nil {
		mc.Hook = r.NewHook()
	}
	pass := func(n int) error {
		for i := 0; i < n; i++ {
			for _, entry := range p.script {
				if err := mc.Run(entry); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := pass(p.warm); err != nil {
		return 0, err
	}
	mc.CPU.Reset()
	if err := pass(p.timed); err != nil {
		return 0, err
	}
	return float64(mc.CPU.Cycles) / float64(p.timed), nil
}
