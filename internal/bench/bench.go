// Package bench is the experiment harness: it rebuilds every table of the
// paper's evaluation (§6 Table 1, §8 Tables 2–12 and the §8.4 robustness
// experiment) against the synthetic kernel, and renders them as aligned
// text tables alongside the paper's reference values where useful.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	pibe "repro"
	"repro/internal/workload"
)

// Suite owns the kernel, the profiles and one cache: the LMBench
// latencies of each build configuration, so tables that share a
// configuration measure it once. The cache keeps the numbers, not the
// image they were measured on: Latencies builds, measures and drops
// it, and a table that reads an image (sizes, optimizer statistics,
// security census) builds it inside its own ForEach and keeps only the
// numbers it prints. Peak memory therefore follows the worker count,
// not the number of configurations.
//
// The suite is safe for concurrent use: the table generators fan
// configurations out across a bounded worker pool (see ForEach), and
// the cache deduplicates concurrent requests for an equal configuration
// so it is measured exactly once no matter how many workers race for
// it.
type Suite struct {
	Seed int64
	Sys  *pibe.System

	ProfLM     *pibe.Profile
	ProfApache *pibe.Profile

	// Workers bounds the goroutines a table generator fans out across.
	// Zero or negative selects the default, min(GOMAXPROCS, 4).
	Workers int

	mu     sync.Mutex
	flight map[pibe.BuildConfig]*flight
}

// flight is one cached (possibly still in-progress) LMBench
// measurement. The first caller to claim a configuration becomes the
// leader and performs the work; everyone else blocks on done and shares
// the result. Entries are never evicted: the flight map IS the cache,
// and an entry holds only latencies.
type flight struct {
	done chan struct{}
	lat  []pibe.Latency
	err  error
}

// ForEach runs fn(0) .. fn(n-1) on at most s.Workers goroutines through
// workload.RunCells: every index runs even if an earlier one fails (so
// cache warm-up is identical for every worker count), and the
// lowest-index error is returned.
func (s *Suite) ForEach(n int, fn func(i int) error) error {
	w := s.Workers
	if w <= 0 {
		w = min(runtime.GOMAXPROCS(0), 4)
	}
	return workload.RunCells(n, w, fn)
}

// NewSuite generates the kernel and collects the LMBench and Apache
// profiles (the two profiling workloads of the evaluation).
func NewSuite(seed int64) (*Suite, error) {
	return NewSuiteKernel(pibe.KernelConfig{Seed: seed})
}

// NewSuiteKernel is NewSuite with an explicit kernel configuration, for
// harnesses (the budget sweep's -sweep-kernel-scale) that evaluate
// scaled-up kernels rather than the default calibrated one.
func NewSuiteKernel(cfg pibe.KernelConfig) (*Suite, error) {
	sys, err := pibe.NewSyntheticKernel(cfg)
	if err != nil {
		return nil, err
	}
	profLM, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		return nil, err
	}
	profAp, err := sys.Profile(pibe.Apache, 4)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Seed:       cfg.Seed,
		Sys:        sys,
		ProfLM:     profLM,
		ProfApache: profAp,
		flight:     make(map[pibe.BuildConfig]*flight),
	}, nil
}

// Standard optimization budgets used across the tables.
const (
	BudgetICP = 0.99999 // the 99.999% promotion budget of Tables 3 and 5
)

// build builds one configuration's image, labelling a failure with the
// configuration.
func (s *Suite) build(cfg pibe.BuildConfig) (*pibe.Image, error) {
	img, err := s.Sys.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: build %s: %w", cfgLabel(cfg), err)
	}
	return img, nil
}

// eachImage builds cfgs[i] and calls fn(i, img) for every index on the
// suite's workers (see ForEach). An image is garbage once its fn
// returns, so fn keeps only the numbers its table prints.
func (s *Suite) eachImage(cfgs []pibe.BuildConfig, fn func(i int, img *pibe.Image) error) error {
	return s.ForEach(len(cfgs), func(i int) error {
		img, err := s.build(cfgs[i])
		if err != nil {
			return err
		}
		return fn(i, img)
	})
}

// Latencies measures (or returns the cached) LMBench latencies for a
// configuration; concurrent calls for equal configurations share one
// build and measurement, and the image is dropped once measured.
// Transient measurement faults are retried only inside
// workload.Runner, where they are drawn; one that survives it is
// returned, wrapped with the configuration's label.
func (s *Suite) Latencies(cfg pibe.BuildConfig) ([]pibe.Latency, error) {
	s.mu.Lock()
	f, ok := s.flight[cfg]
	if !ok {
		f = &flight{done: make(chan struct{})}
		s.flight[cfg] = f
	}
	s.mu.Unlock()
	if ok {
		<-f.done
		return f.lat, f.err
	}
	defer close(f.done)
	img, err := s.build(cfg)
	if err != nil {
		f.err = err
		return nil, err
	}
	f.lat, f.err = img.MeasureLMBench(pibe.LMBench)
	if f.err != nil {
		f.lat = nil
		f.err = fmt.Errorf("bench: measure %s: %w", cfgLabel(cfg), f.err)
	}
	return f.lat, f.err
}

// cfgLabel names a configuration in error messages by its defenses and
// budgets.
func cfgLabel(cfg pibe.BuildConfig) string {
	o := cfg.Optimize
	return fmt.Sprintf("%s icp %g inline %g lax %g", cfg.Defenses, o.ICPBudget, o.InlineBudget, o.LaxBudget)
}

// Baseline returns the LTO-baseline latencies (no PGO, no defenses),
// the reference everything else is relative to.
func (s *Suite) Baseline() ([]pibe.Latency, error) {
	return s.Latencies(pibe.BuildConfig{})
}

// overheads computes per-benchmark relative overheads against the LTO
// baseline plus their geometric mean (appended last). A geomean that
// had to skip or clamp inputs (a zero/failed baseline showing up as
// ±Inf, an overhead under -99%) is flagged on stderr rather than left
// to silently misrepresent the row.
func overheads(base, cfg []pibe.Latency) []float64 {
	out := make([]float64, 0, len(cfg)+1)
	for i := range cfg {
		out = append(out, pibe.Overhead(base[i].Micros, cfg[i].Micros))
	}
	g, stats := pibe.GeomeanCounted(out)
	if stats.Degenerate() {
		fmt.Fprintf(os.Stderr, "bench: warning: geomean over %d overheads degraded: %s\n", len(out), stats)
	}
	out = append(out, g)
	return out
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // "1", "2", ..., "robustness"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if i == 0 {
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
func us(x float64) string  { return fmt.Sprintf("%.2f", x) }
func n(x int) string       { return fmt.Sprintf("%d", x) }
func n64(x int64) string   { return fmt.Sprintf("%d", x) }
func u64(x uint64) string  { return fmt.Sprintf("%d", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func frac(a, b uint64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}
