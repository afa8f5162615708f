package fleet

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/workload"
)

var (
	testOnce sync.Once
	testK    *kernel.Kernel
	testP    *interp.Program
	testErr  error
)

// testKernel builds one small kernel shared by the package's tests.
func testKernel(t *testing.T) (*kernel.Kernel, *interp.Program) {
	t.Helper()
	testOnce.Do(func() {
		testK, testErr = kernel.Generate(kernel.Config{Seed: 3, ColdFuncs: 50})
		if testErr != nil {
			return
		}
		testP, testErr = interp.Compile(testK.Mod.Clone())
	})
	if testErr != nil {
		t.Fatalf("test kernel: %v", testErr)
	}
	return testK, testP
}

func serialize(t *testing.T, p *prof.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// collectorDeltas profiles n workload runs of the given flavors, the
// way a fleet's collectors do.
func collectorDeltas(t *testing.T, n int, flavors ...workload.Flavor) []*prof.Profile {
	t.Helper()
	k, prog := testKernel(t)
	var deltas []*prof.Profile
	for i := 0; i < n; i++ {
		r, err := workload.NewRunner(k, prog, flavors[i%len(flavors)], int64(100+i))
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		p, err := r.Profile(1)
		if err != nil {
			t.Fatalf("Profile: %v", err)
		}
		deltas = append(deltas, p)
	}
	return deltas
}

// siteID maps a small int onto the site-ID space; sites stripe by
// id % shards, which is what the expectations below count on.
func siteID(i int) ir.SiteID { return ir.SiteID(i) }

// TestAggregatorShardStats: occupancy reflects where site IDs hash,
// merge counters count Add calls per touched stripe, and Snapshot /
// Decay leave the counters alone.
func TestAggregatorShardStats(t *testing.T) {
	a := NewAggregator(4, 0.5)

	// Site IDs partition by id % shards, so IDs 0..7 land two per stripe.
	d := prof.New()
	for id := 0; id < 8; id++ {
		d.AddDirect(siteID(id), "caller", "callee", 10)
	}
	a.Add(d)

	stats := a.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats returned %d stripes, want 4", len(stats))
	}
	for i, st := range stats {
		if st.Sites != 2 {
			t.Errorf("stripe %d occupancy %d, want 2", i, st.Sites)
		}
		if st.Merges != 1 {
			t.Errorf("stripe %d merges %d, want 1 after one Add touching all stripes", i, st.Merges)
		}
	}

	// A delta touching only stripe 1 bumps only stripe 1's counter.
	d2 := prof.New()
	d2.AddDirect(siteID(5), "caller", "callee", 1)
	a.Add(d2)
	stats = a.ShardStats()
	for i, st := range stats {
		want := uint64(1)
		if i == 1 {
			want = 2
		}
		if st.Merges != want {
			t.Errorf("stripe %d merges %d, want %d", i, st.Merges, want)
		}
	}

	// Snapshot and Decay are reads/maintenance, not merges.
	a.Snapshot()
	a.Decay()
	for i, st := range a.ShardStats() {
		want := uint64(1)
		if i == 1 {
			want = 2
		}
		if st.Merges != want {
			t.Errorf("after Snapshot+Decay: stripe %d merges %d, want %d", i, st.Merges, want)
		}
	}

	// Occupancy tracks the live stripe contents: decay at 0.5 halves the
	// count-10 sites to 5 (still present) and drops the count-1 site.
	stats = a.ShardStats()
	if stats[1].Sites != 2 {
		t.Errorf("stripe 1 occupancy %d after decay, want 2 (count-1 site decayed out)", stats[1].Sites)
	}

	// Total occupancy agrees with SiteCount.
	var total int
	for _, st := range stats {
		total += st.Sites
	}
	if total != a.SiteCount() {
		t.Errorf("ShardStats occupancy sums to %d, SiteCount says %d", total, a.SiteCount())
	}
}

// TestAggregatorShardStatsConcurrent: merge counters are exact under
// concurrent Add — the sum over stripes of per-stripe merges equals
// adds × stripes-touched, with no lost updates.
func TestAggregatorShardStatsConcurrent(t *testing.T) {
	a := NewAggregator(4, 1)
	const adds = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds/8; i++ {
				d := prof.New()
				for id := 0; id < 4; id++ {
					d.AddDirect(siteID(id), "caller", "callee", 1)
				}
				a.Add(d)
			}
		}(g)
	}
	wg.Wait()
	var merges uint64
	for _, st := range a.ShardStats() {
		merges += st.Merges
	}
	if merges != adds*4 {
		t.Fatalf("total merges %d, want %d (every Add touches all 4 stripes)", merges, adds*4)
	}
}

// TestAggregatorMatchesSerialMerge: the sharded concurrent path must
// compute exactly what a serial prof.Merge fold computes.
func TestAggregatorMatchesSerialMerge(t *testing.T) {
	deltas := collectorDeltas(t, 6, workload.Apache, workload.Nginx, workload.DBench)

	serial := prof.New()
	for _, d := range deltas {
		serial.Merge(d)
	}

	for _, shards := range []int{1, 3, 8} {
		agg := NewAggregator(shards, 1)
		var wg sync.WaitGroup
		for _, d := range deltas {
			wg.Add(1)
			go func(d *prof.Profile) {
				defer wg.Done()
				agg.Add(d)
			}(d)
		}
		wg.Wait()
		if got, want := serialize(t, agg.Snapshot()), serialize(t, serial); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: concurrent aggregate differs from serial merge", shards)
		}
	}
}

// TestPartialAggregateUnderFaults: collectors whose profiling runs
// abort on injected execution traps degrade to the partial profiles
// they salvaged, and those merge into a usable non-empty aggregate —
// exactly the serial merge of every delta, partial ones included.
func TestPartialAggregateUnderFaults(t *testing.T) {
	k, prog := testKernel(t)
	inj := resilience.NewInjector(11, resilience.Rates{Trap: 3e-4})
	flavors := []workload.Flavor{workload.Apache, workload.Nginx}
	agg := NewAggregator(4, 1)
	serial := prof.New()
	var aborted int
	for i := 0; i < 8; i++ {
		r, err := workload.NewRunner(k, prog, flavors[i%len(flavors)], int64(100+i))
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.Inject = inj
		p, err := r.Profile(2)
		if err != nil {
			if p == nil || !resilience.IsAbort(err) {
				t.Fatalf("collector %d failed instead of degrading to a partial profile: %v", i, err)
			}
			aborted++
		}
		agg.Add(p)
		serial.Merge(p)
	}
	if aborted == 0 {
		t.Fatal("no collector aborted under injected traps (raise the rate?)")
	}
	snap := agg.Snapshot()
	if len(snap.Sites) == 0 {
		t.Fatal("partial aggregate is empty")
	}
	if !bytes.Equal(serialize(t, snap), serialize(t, serial)) {
		t.Error("partial aggregate differs from the serial merge of the salvaged deltas")
	}
}

func TestDecay(t *testing.T) {
	agg := NewAggregator(2, 0.5)
	d := prof.New()
	d.AddDirect(1, "a", "b", 100)
	d.AddIndirect(2, "a", "x", 10)
	d.AddIndirect(2, "a", "y", 1)
	d.AddInvocation("a", 50)
	d.Ops = 40
	agg.Add(d)

	agg.Decay()
	snap := agg.Snapshot()
	if got := snap.Sites[1].Count; got != 50 {
		t.Errorf("direct count after one decay = %d, want 50", got)
	}
	s2 := snap.Sites[2]
	if s2.Targets["x"] != 5 {
		t.Errorf("indirect target x after decay = %d, want 5", s2.Targets["x"])
	}
	if _, ok := s2.Targets["y"]; ok {
		t.Error("stale single-count target y survived a decay epoch")
	}
	if s2.Count != 5 {
		t.Errorf("indirect header after decay = %d, want sum of surviving targets 5", s2.Count)
	}
	if snap.Invocations["a"] != 25 || snap.Ops != 20 {
		t.Errorf("invocations/ops after decay = %d/%d, want 25/20", snap.Invocations["a"], snap.Ops)
	}

	// Decay to extinction: counts hit zero and entries drop out.
	for i := 0; i < 12; i++ {
		agg.Decay()
	}
	snap = agg.Snapshot()
	if len(snap.Sites) != 0 || len(snap.Invocations) != 0 || snap.Ops != 0 {
		t.Errorf("aggregate did not fully decay: %d sites, %d fns, ops %d",
			len(snap.Sites), len(snap.Invocations), snap.Ops)
	}
}

// TestDecayedSnapshotRoundTrips: decay must preserve the serialization
// invariant (indirect header == Σ target counts) that the strict profile
// reader enforces.
func TestDecayedSnapshotRoundTrips(t *testing.T) {
	k, prog := testKernel(t)
	r, err := workload.NewRunner(k, prog, workload.Apache, 7)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	p, err := r.Profile(2)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	agg := NewAggregator(4, 0.37)
	agg.Add(p)
	for i := 0; i < 3; i++ {
		agg.Decay()
	}
	data := serialize(t, agg.Snapshot())
	if _, err := prof.Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("decayed snapshot rejected by strict reader: %v", err)
	}
}

// TestEmptyHotSetOverlapNoDrift pins HotOverlap's empty-set semantics
// from the fleet's point of view. A freshly started fleet whose
// baseline and live aggregate are both still empty has seen no weight
// move anywhere, so the drift statistic must read 1.0 (perfect
// agreement) — any drift threshold below 1 must NOT fire and trigger a
// spurious rebuild. Only an asymmetric emptiness (one side has hot
// weight, the other none) is total disagreement, 0.
func TestEmptyHotSetOverlapNoDrift(t *testing.T) {
	empty, other := prof.New(), prof.New()
	const budget = 0.99
	if got := prof.HotOverlap(empty, other, budget); got != 1.0 {
		t.Fatalf("HotOverlap(empty, empty) = %v, want 1.0 (no drift)", got)
	}
	// Every sane DriftThreshold is < 1, so the fleet's trigger
	// condition overlap < threshold must be false for the empty pair.
	for _, thr := range []float64{0.5, 0.9, 0.999} {
		if overlap := prof.HotOverlap(empty, other, budget); overlap < thr {
			t.Errorf("empty-vs-empty overlap %v below drift threshold %v: would spuriously rebuild", overlap, thr)
		}
	}
	nonempty := prof.New()
	nonempty.AddIndirect(1, "caller", "target", 1000)
	if got := prof.HotOverlap(empty, nonempty, budget); got != 0 {
		t.Errorf("HotOverlap(empty, nonempty) = %v, want 0 (total disagreement)", got)
	}
	if got := prof.HotOverlap(nonempty, empty, budget); got != 0 {
		t.Errorf("HotOverlap(nonempty, empty) = %v, want 0 (total disagreement)", got)
	}
	if got := prof.HotOverlap(nonempty, nonempty, budget); got != 1.0 {
		t.Errorf("HotOverlap(p, p) = %v, want 1.0", got)
	}
}

// TestSnapshotDeterminism is the aggregate's determinism contract over
// several barriers: deltas added concurrently, with a decay at every
// barrier, give byte-identical snapshots for every stripe count and
// every schedule, equal to a serial merge-and-decay fold.
func TestSnapshotDeterminism(t *testing.T) {
	deltas := collectorDeltas(t, 9, workload.Apache, workload.Nginx)
	const epochs = 3
	serial := prof.New()
	for e := 0; e < epochs; e++ {
		for _, d := range deltas[e*3 : e*3+3] {
			serial.Merge(d)
		}
		decayProfile(serial, 0.5)
	}
	want := serialize(t, serial)
	for _, shards := range []int{1, 4, 4, 7} {
		agg := NewAggregator(shards, 0.5)
		for e := 0; e < epochs; e++ {
			var wg sync.WaitGroup
			for _, d := range deltas[e*3 : e*3+3] {
				wg.Add(1)
				go func(d *prof.Profile) {
					defer wg.Done()
					agg.Add(d)
				}(d)
			}
			wg.Wait()
			agg.Decay()
		}
		if got := serialize(t, agg.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: decayed concurrent aggregate differs from the serial fold", shards)
		}
	}
	if len(want) < 100 {
		t.Fatalf("suspiciously small aggregate: %d bytes", len(want))
	}
}
