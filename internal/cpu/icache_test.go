package cpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// lruOracle is a set-associative LRU cache written independently of the
// model: each set is a list of line numbers, most recent first, that
// grows to the way count before it evicts.
type lruOracle struct {
	sets [][]int64
	ways int
	line int64
	// ranks counts hits by recency rank (0 = the set's newest line);
	// evictions counts misses that dropped a line.
	ranks     []int
	evictions int
}

func newLRUOracle(sets, ways int, line int64) *lruOracle {
	return &lruOracle{sets: make([][]int64, sets), ways: ways, line: line, ranks: make([]int, ways)}
}

// touch reports whether the line holding addr hits, and records it as
// the newest line of its set.
func (o *lruOracle) touch(addr int64) bool {
	n := addr / o.line
	set := int(n % int64(len(o.sets)))
	list := o.sets[set]
	for i, l := range list {
		if l == n {
			o.ranks[i]++
			o.sets[set] = append([]int64{n}, append(list[:i:i], list[i+1:]...)...)
			return true
		}
	}
	if len(list) == o.ways {
		o.evictions++
		list = list[:o.ways-1]
	}
	o.sets[set] = append([]int64{n}, list...)
	return false
}

// TestICacheMatchesLRUOracle drives the model's i-cache and an LRU oracle
// with the same seeded touch stream and requires the same hit or miss on
// every touch, then the same Cycles and Stats, across a Reset (cache
// kept) and a ResetAll (cache flushed). The stream stays on a few sets
// and draws from two more lines per set than it has ways, so hits at
// every recency rank, cold misses and evictions all occur.
func TestICacheMatchesLRUOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 8} {
		for _, sets := range []int{1, 64} {
			for _, line := range []int64{32, 64} {
				t.Run(fmt.Sprintf("%dx%dx%d", ways, sets, line), func(t *testing.T) {
					checkICacheAgainstOracle(t, sets, ways, line)
				})
			}
		}
	}
}

func checkICacheAgainstOracle(t *testing.T, sets, ways int, line int64) {
	p := DefaultParams()
	p.ICacheSets, p.ICacheWays, p.ICacheLine = sets, ways, line
	m := New(p)
	o := newLRUOracle(sets, ways, line)
	rng := rand.New(rand.NewSource(int64(sets*1000 + ways*10 + int(line))))
	hot := []int{0, 1 % sets, sets - 1}
	addr := func() int64 {
		set := int64(hot[rng.Intn(len(hot))])
		tag := int64(rng.Intn(ways + 2))
		return (tag*int64(sets)+set)*line + rng.Int63n(line)
	}

	var cycles int64
	var want Counters
	for phase := 0; phase < 3; phase++ {
		switch phase {
		case 1: // Reset keeps the cache warm.
			m.Reset()
			cycles, want = 0, Counters{}
		case 2: // ResetAll flushes it.
			m.ResetAll()
			o = newLRUOracle(sets, ways, line)
			cycles, want = 0, Counters{}
		}
		if m.Cycles != 0 || m.Stats != (Counters{}) {
			t.Fatalf("phase %d: model not cleared: cycles %d, stats %+v", phase, m.Cycles, m.Stats)
		}
		for i := 0; i < 4000; i++ {
			before := m.Stats
			a := addr()
			var hits, n int64
			switch k := rng.Intn(4); k {
			case 0, 1: // single-line touch
				n = 1
				m.TouchLine(a)
			case 2: // a run of lines from a straight-line block
				n = int64(1 + rng.Intn(3))
				m.TouchLines(a, int(n))
			default:
				n = int64(1 + rng.Intn(3))
				m.AddStraightline(5, 3)
				m.TouchLines(a, int(n))
				cycles += 5
				want.Instructions += 3
			}
			start := a - a%line
			for j := int64(0); j < n; j++ {
				if o.touch(start + j*line) {
					hits++
				}
			}
			if got := m.Stats.ICacheHits - before.ICacheHits; got != hits {
				t.Fatalf("phase %d touch %d at %#x (%d lines): model hits %d, oracle %d",
					phase, i, a, n, got, hits)
			}
			if got := m.Stats.ICacheMisses - before.ICacheMisses; got != n-hits {
				t.Fatalf("phase %d touch %d at %#x (%d lines): model misses %d, oracle %d",
					phase, i, a, n, got, n-hits)
			}
			want.ICacheHits += hits
			want.ICacheMisses += n - hits
			cycles += (n - hits) * p.ICacheMissPenalty
		}
		if m.Cycles != cycles || m.Stats != want {
			t.Fatalf("phase %d: model cycles %d stats %+v, oracle cycles %d stats %+v",
				phase, m.Cycles, m.Stats, cycles, want)
		}
	}
	for r, n := range o.ranks {
		if n == 0 {
			t.Errorf("no hit at recency rank %d: the stream does not cover every way", r)
		}
	}
	if o.evictions == 0 {
		t.Error("the stream never evicted a line")
	}
}

// TestNewRejectsUnsimulatableGeometry: a geometry field the model would
// use as a mask, alignment or depth it cannot honour panics in New,
// naming the field, instead of being simulated wrongly.
func TestNewRejectsUnsimulatableGeometry(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Params)
	}{
		{"BTBEntries", func(p *Params) { p.BTBEntries = 3000 }},
		{"PHTEntries", func(p *Params) { p.PHTEntries = 0 }},
		{"ICacheSets", func(p *Params) { p.ICacheSets = 48 }},
		{"ICacheLine", func(p *Params) { p.ICacheLine = 48 }},
		{"ICacheWays", func(p *Params) { p.ICacheWays = 0 }},
		{"RSBDepth", func(p *Params) { p.RSBDepth = 0 }},
	} {
		p := DefaultParams()
		c.set(&p)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Params."+c.field) {
					t.Errorf("New with a bad %s: panic %q, want one naming the field", c.field, msg)
				}
			}()
			New(p)
		}()
	}
}
