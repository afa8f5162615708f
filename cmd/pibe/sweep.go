package main

import (
	"fmt"
	"os"
	"time"

	pibe "repro"
	"repro/internal/bench"
	"repro/internal/sweep"
)

// sweepOpts carries the `pibe sweep` flag values.
type sweepOpts struct {
	seed           int64
	grid           string
	combos         string
	kneeFactor     float64
	kernelScale    int
	timings        bool
	measureWorkers int
	jsonPath       string
	statePath      string
	chaosRate      float64
	chaosSeed      int64
	chaosMax       int
}

// runSweep evaluates the budget grid and writes the text matrices to
// stdout and the machine-readable report to opts.jsonPath. With -state
// it checkpoints each completed cell and resumes an interrupted sweep.
func runSweep(opts sweepOpts) error {
	grid, err := sweep.ParseGrid(opts.grid)
	if err != nil {
		return err
	}
	combos, err := sweep.CombosByName(opts.combos)
	if err != nil {
		return err
	}
	kcfg := sweep.ScaledKernelConfig(opts.seed, opts.kernelScale)
	start := time.Now()
	suite, err := bench.NewSuiteKernel(kcfg)
	if err != nil {
		return err
	}
	suite.Sys.SetMeasureWorkers(opts.measureWorkers)
	fmt.Fprintf(os.Stderr, "pibe sweep: kernel generated and profiled in %v (%d cells)\n",
		time.Since(start).Round(time.Millisecond), len(grid)*len(grid)*len(combos))

	// Chaos arms after the suite exists (profile collection stays clean)
	// and after the baseline is pre-measured, so injected faults land on
	// grid cells — which degrade per-cell — rather than sinking the
	// whole sweep in setup.
	if opts.chaosRate > 0 {
		if _, err := suite.Baseline(); err != nil {
			return err
		}
		inject := suite.Sys.InjectFaults(opts.chaosSeed, pibe.UniformFaultRates(opts.chaosRate), opts.chaosMax)
		defer func() {
			fmt.Fprintf(os.Stderr, "pibe sweep: chaos: injected faults: %s\n", inject.Summary())
		}()
	}

	rep, err := sweep.Run(suite, sweep.Config{
		ICPGrid:      grid,
		InlineGrid:   grid,
		Combos:       combos,
		KneeFactor:   opts.kneeFactor,
		Timings:      opts.timings,
		ColdFuncs:    kcfg.ColdFuncs,
		HelperLayers: kcfg.HelperLayers,
		StatePath:    opts.statePath,
	})
	if err != nil {
		return err
	}

	for _, t := range rep.Tables() {
		fmt.Println(t.Render())
	}
	data, err := rep.WriteJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(opts.jsonPath, data, 0o644); err != nil {
		return err
	}
	status := ""
	if rep.FailedCells > 0 {
		status = fmt.Sprintf(", %d FAILED", rep.FailedCells)
	}
	fmt.Printf("wrote %s (%d cells%s, %d knees) in %v\n",
		opts.jsonPath, len(rep.Cells), status, len(rep.Knees), time.Since(start).Round(time.Millisecond))
	return nil
}

// runSweepDiff compares two BENCH_sweep.json surfaces
// (`pibe sweep-diff A.json B.json`), printing per-cell overhead deltas
// and knee migration per combo.
func runSweepDiff(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("sweep-diff: usage: pibe sweep-diff A.json B.json")
	}
	a, err := sweep.ReadReport(paths[0])
	if err != nil {
		return err
	}
	b, err := sweep.ReadReport(paths[1])
	if err != nil {
		return err
	}
	d := sweep.Diff(a, b)
	fmt.Printf("sweep diff: A=%s  B=%s  max |delta| %.2fpp\n\n", paths[0], paths[1], 100*d.MaxAbsDelta)
	for _, t := range d.Tables(a, b) {
		fmt.Println(t.Render())
	}
	moved := 0
	for _, k := range d.Knees {
		if k.Moved {
			moved++
		}
	}
	if moved > 0 {
		fmt.Printf("%d of %d knees moved\n", moved, len(d.Knees))
	} else {
		fmt.Printf("all %d knees unchanged\n", len(d.Knees))
	}
	return nil
}
