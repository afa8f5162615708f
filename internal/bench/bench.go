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

// Suite owns the kernel, the profiles and a cache of built images and
// measured latencies, keyed by build configuration, so tables that share
// a configuration build and measure it once. Entries live as long as the
// suite, so a caller that evaluates many one-off configurations (the
// budget sweep) builds and measures through Sys instead.
//
// The suite is safe for concurrent use: the table generators fan
// configuration builds and measurements out across a bounded worker pool
// (see ForEach), and the caches deduplicate concurrent requests for an
// equal configuration so it is built exactly once no matter how many
// workers race for it.
type Suite struct {
	Seed int64
	Sys  *pibe.System

	ProfLM     *pibe.Profile
	ProfApache *pibe.Profile

	// Workers bounds the goroutines a table generator fans out across.
	// Zero or negative selects the default, min(GOMAXPROCS, 4).
	Workers int

	mu     sync.Mutex
	flight map[flightKey]*flight
}

// flightKey addresses one cache entry: a configuration's image, or
// (lat) its LMBench latencies.
type flightKey struct {
	cfg pibe.BuildConfig
	lat bool
}

// flight is one cached (possibly still in-progress) build or
// measurement. The first caller to claim a key becomes the leader and
// performs the work; everyone else blocks on done and shares the
// result. Entries are never evicted — the flight map IS the cache.
type flight struct {
	done chan struct{}
	img  *pibe.Image
	lat  []pibe.Latency
	err  error
}

// claim returns the flight for key, creating it if absent. The boolean
// reports whether the caller is the leader and must do the work (and
// close done when finished).
func (s *Suite) claim(key flightKey) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flight[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	s.flight[key] = f
	return f, true
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
		flight:     make(map[flightKey]*flight),
	}, nil
}

// Standard optimization budgets used across the tables.
const (
	BudgetICP = 0.99999 // the 99.999% promotion budget of Tables 3 and 5
)

// Image builds (or returns the cached) image for a configuration.
// Concurrent calls for equal configurations share one build.
func (s *Suite) Image(cfg pibe.BuildConfig) (*pibe.Image, error) {
	f, leader := s.claim(flightKey{cfg: cfg})
	if !leader {
		<-f.done
		return f.img, f.err
	}
	defer close(f.done)
	f.img, f.err = s.Sys.Build(cfg)
	if f.err != nil {
		f.err = fmt.Errorf("bench: build %s: %w", cfgLabel(cfg), f.err)
	}
	return f.img, f.err
}

// Latencies measures (or returns the cached) LMBench latencies for a
// configuration. Transient measurement faults are retried only inside
// workload.Runner, where they are drawn; one that survives it is
// returned, wrapped with the configuration's label.
func (s *Suite) Latencies(cfg pibe.BuildConfig) ([]pibe.Latency, error) {
	f, leader := s.claim(flightKey{cfg: cfg, lat: true})
	if !leader {
		<-f.done
		return f.lat, f.err
	}
	defer close(f.done)
	img, err := s.Image(cfg)
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
