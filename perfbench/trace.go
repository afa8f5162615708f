package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// opLog records one timed loop: each op's latency and failure, and the
// loop's wall time without the reference checks run between ops.
type opLog struct {
	lat     []time.Duration
	failed  []bool
	reasons []string // the first few failure reasons, for the report
	start   time.Time
	checks  time.Duration
	wall    time.Duration
}

func (l *opLog) begin() { l.start = time.Now() }
func (l *opLog) end()   { l.wall = time.Since(l.start) - l.checks }

// do runs op as the next op and records its latency; an error fails it.
func (l *opLog) do(op func() error) {
	start := time.Now()
	err := op()
	l.lat = append(l.lat, time.Since(start))
	l.failed = append(l.failed, false)
	if err != nil {
		l.fail(len(l.lat)-1, "%v", err)
	}
}

// check runs a reference check between ops, outside the loop's wall time.
func (l *opLog) check(f func()) {
	start := time.Now()
	f()
	l.checks += time.Since(start)
}

func (l *opLog) fail(i int, format string, args ...any) {
	if !l.failed[i] && len(l.reasons) < 5 {
		l.reasons = append(l.reasons, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
	}
	l.failed[i] = true
}

// failAll fails every op, for a check only the whole loop's output
// answers.
func (l *opLog) failAll(format string, args ...any) {
	l.reasons = append(l.reasons, "all ops: "+fmt.Sprintf(format, args...))
	for i := range l.failed {
		l.failed[i] = true
	}
}

func (l *opLog) failures() int {
	n := 0
	for _, f := range l.failed {
		if f {
			n++
		}
	}
	return n
}

func (l *opLog) opsPerSec() float64 { return frac(float64(len(l.lat)), l.wall.Seconds()) }

func (l *opLog) printFailures(out io.Writer) {
	for _, r := range l.reasons {
		fmt.Fprintln(out, "FAILED", r)
	}
}

// tailLadder lists, highest first, the percentiles op_tail_ms may
// report: the first with at least ten samples beyond it. A workload's op
// count is fixed, so each workload always reports the same percentile.
// The ladder stops at p99: beyond it, a run of a million microsecond ops
// reports scheduler preemptions rather than the program.
var tailLadder = []float64{99, 95, 90, 75}

// latencySummary is the median and tail of one loop's op latencies.
type latencySummary struct {
	p50, tail time.Duration
	tailP     float64
	beyond    int
}

// nearestRank returns the 0-based index of percentile p among n sorted
// samples.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n))), 1) - 1
}

func summarizeLatency(lat []time.Duration) (latencySummary, error) {
	s := slices.Clone(lat)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return latencySummary{}, errors.New("no ops ran")
	}
	out := latencySummary{p50: s[nearestRank(50, n)]}
	for _, p := range tailLadder {
		if r := nearestRank(p, n); n-1-r >= 10 {
			out.tail, out.tailP, out.beyond = s[r], p, n-1-r
			return out, nil
		}
	}
	return out, fmt.Errorf("%d ops leave no tail percentile with ten samples beyond it", n)
}

// span is one traced interval: nanoseconds since the tracer started, the
// index of the enclosing span (-1 for a root) and the op that caused it
// (-1 outside ops).
type span struct {
	name       string
	start, end int64
	parent, op int32
}

// tracer keeps a run's spans in memory until the run writes them out. A
// nil tracer records nothing, so the same replay code serves the traced
// loop and the untraced reference runs.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// setOp attributes the spans that follow to op i (-1 for none).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = int32(i)
	}
}

// begin opens a span inside the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return int(id)
}

// end closes span id and any span still open inside it, which an op that
// failed midway leaves behind.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].end = now
		if int(top) == id {
			return
		}
	}
}

// span runs f inside a span called name.
func (t *tracer) span(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// spanTotal sums the spans of one name: how many, their duration, and
// their self time (duration less the part their child spans cover).
type spanTotal struct {
	n         int
	dur, self time.Duration
}

func (s spanTotal) meanMS() float64 { return frac(ms(s.dur), float64(s.n)) }
func (s spanTotal) meanUS() float64 { return frac(float64(s.dur)/1e3, float64(s.n)) }

func (t *tracer) totals() map[string]spanTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanTotal)
	for i, s := range t.spans {
		d := s.end - s.start
		st := out[s.name]
		st.n++
		st.dur += time.Duration(d)
		st.self += time.Duration(d - child[i])
		out[s.name] = st
	}
	return out
}

// write stores the spans at path as tab-separated lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
