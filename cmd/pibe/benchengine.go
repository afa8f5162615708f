package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// engineBench is one timed benchmark in the BENCH_engine.json report.
type engineBench struct {
	Name      string  `json:"name"`
	Iters     int     `json:"iters"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// engineReport is the machine-readable perf trajectory record emitted by
// `pibe bench-engine`.
type engineReport struct {
	Seed       int64         `json:"seed"`
	Engine     string        `json:"engine"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"measure_workers"`
	Benches    []engineBench `json:"benches"`
	// SpeedupMachineRun is interpreter machine_run ns/op divided by
	// compiled ns/op — the threaded-code tier's dispatch speedup,
	// measured in the same process on the same kernel.
	SpeedupMachineRun float64 `json:"speedup_machine_run"`
	// SpeedupMeasureRequest is serial ns/op divided by parallel ns/op
	// for MeasureRequest. Omitted (with SpeedupNote) when GOMAXPROCS=1:
	// a box with no parallelism available would report the sharded
	// driver's coordination overhead as a bogus headline "slowdown".
	SpeedupMeasureRequest float64 `json:"speedup_measure_request,omitempty"`
	SpeedupNote           string  `json:"speedup_note,omitempty"`
}

// benchLoop times fn, running at least minIters iterations and at least
// a fixed minimum duration so cheap operations are not measured from a
// single noisy sample. Clock reads are batched — the batch doubles up
// to a cap between checks — so the timer itself stays out of the
// per-operation cost for nanosecond-scale fns.
func benchLoop(name string, minIters int, fn func() error) (engineBench, error) {
	const minDur = 500 * time.Millisecond
	if minIters < 1 {
		minIters = 1
	}
	iters := 0
	batch := 1
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return engineBench{}, fmt.Errorf("bench-engine: %s: %w", name, err)
			}
		}
		iters += batch
		if iters >= minIters && time.Since(start) >= minDur {
			break
		}
		if batch < 4096 {
			batch *= 2
		}
	}
	elapsed := time.Since(start)
	ns := float64(elapsed.Nanoseconds()) / float64(iters)
	return engineBench{
		Name:      name,
		Iters:     iters,
		NsPerOp:   ns,
		OpsPerSec: 1e9 / ns,
	}, nil
}

// benchEngine times the execution engine end to end and writes the JSON
// report to path. It builds its runners directly on the unoptimized
// kernel program, matching the package benchmarks in internal/workload
// and internal/interp so the CLI numbers and `go test -bench` numbers
// describe the same code paths. The machine_run dispatch benchmark is
// always timed on both tiers (machine_run_interp / machine_run_compiled
// rows); the headline machine_run row and the workload benchmarks run
// on the selected engine.
func benchEngine(path string, seed int64, workers, minIters int, eng interp.Engine) error {
	k, err := kernel.Generate(kernel.Config{Seed: seed})
	if err != nil {
		return err
	}
	prog, err := interp.Compile(k.Mod)
	if err != nil {
		return err
	}
	newRunner := func(flavor workload.Flavor, w int) (*workload.Runner, error) {
		r, err := workload.NewRunner(k, prog, flavor, seed+9)
		if err != nil {
			return nil, err
		}
		r.Workers = w
		r.Engine = eng
		return r, nil
	}

	gmp := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = gmp
	}
	rep := engineReport{Seed: seed, Engine: eng.String(), GOMAXPROCS: gmp, Workers: workers}

	// Raw dispatch, one warmed machine executing one kernel entry, both
	// tiers. Each tier gets its own machine and CPU model so neither
	// inherits the other's predictor state.
	entry := k.Specs[0].Name
	entryIdx := prog.FuncIndex(k.Entries[entry])
	runTier := func(name string, e interp.Engine) (engineBench, error) {
		mr, err := newRunner(workload.LMBench, 0)
		if err != nil {
			return engineBench{}, err
		}
		mc := interp.NewMachine(prog, seed+13)
		mc.CPU = mr.CPU
		mc.Res = mr.Res
		mc.Engine = e
		return benchLoop(name, minIters*100, func() error {
			return mc.RunIndex(entryIdx)
		})
	}
	bInterp, err := runTier("machine_run_interp", interp.EngineInterp)
	if err != nil {
		return err
	}
	bCompiled, err := runTier("machine_run_compiled", interp.EngineCompiled)
	if err != nil {
		return err
	}
	head := bInterp
	if eng == interp.EngineCompiled {
		head = bCompiled
	}
	head.Name = "machine_run"
	rep.Benches = append(rep.Benches, head, bInterp, bCompiled)
	rep.SpeedupMachineRun = bInterp.NsPerOp / bCompiled.NsPerOp

	// Profile collection over the Apache mix.
	pr, err := newRunner(workload.Apache, 0)
	if err != nil {
		return err
	}
	b, err := benchLoop("profile_collection", minIters, func() error {
		_, err := pr.Profile(2)
		return err
	})
	if err != nil {
		return err
	}
	rep.Benches = append(rep.Benches, b)

	// Request measurement, serial driver vs sharded driver. With only
	// one scheduler thread there is no parallelism to measure, so the
	// parallel bench and the speedup ratio are skipped with a note
	// instead of reporting coordination overhead as a slowdown.
	rs, err := newRunner(workload.Nginx, 0)
	if err != nil {
		return err
	}
	serial, err := benchLoop("measure_request_serial", minIters, func() error {
		_, err := rs.MeasureRequest(5)
		return err
	})
	if err != nil {
		return err
	}
	rep.Benches = append(rep.Benches, serial)
	if gmp == 1 {
		rep.SpeedupNote = "GOMAXPROCS=1: parallel measure bench skipped (no parallelism available)"
	} else {
		rp, err := newRunner(workload.Nginx, workers)
		if err != nil {
			return err
		}
		parallel, err := benchLoop("measure_request_parallel", minIters, func() error {
			_, err := rp.MeasureRequest(5)
			return err
		})
		if err != nil {
			return err
		}
		rep.Benches = append(rep.Benches, parallel)
		rep.SpeedupMeasureRequest = serial.NsPerOp / parallel.NsPerOp
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, b := range rep.Benches {
		fmt.Printf("%-26s %12.0f ns/op %14.1f ops/sec  (%d iters)\n", b.Name, b.NsPerOp, b.OpsPerSec, b.Iters)
	}
	fmt.Printf("machine-run speedup (interp/compiled): %.2fx\n", rep.SpeedupMachineRun)
	if rep.SpeedupNote != "" {
		fmt.Printf("measure-request speedup: skipped — %s\n", rep.SpeedupNote)
	} else {
		fmt.Printf("measure-request speedup (serial/parallel, %d workers): %.2fx\n", workers, rep.SpeedupMeasureRequest)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
