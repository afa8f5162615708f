package prof

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func sample() *Profile {
	p := New()
	p.Ops = 42
	p.AddDirect(1, "ksys_read", "vfs_read", 1000)
	p.AddIndirect(2, "vfs_read", "ext4_read", 800)
	p.AddIndirect(2, "vfs_read", "pipe_read", 150)
	p.AddIndirect(2, "vfs_read", "sock_read", 50)
	p.AddInvocation("vfs_read", 1000)
	p.AddInvocation("ext4_read", 800)
	return p
}

func TestAddAndTotals(t *testing.T) {
	p := sample()
	if d := p.Sites[1]; d.Indirect() || d.Count != 1000 {
		t.Errorf("site 1: indirect=%v count=%d", d.Indirect(), d.Count)
	}
	s := p.Sites[2]
	if !s.Indirect() || s.Count != 1000 {
		t.Fatalf("site 2: indirect=%v count=%d", s.Indirect(), s.Count)
	}
	ts := s.SortedTargets()
	wantOrder := []string{"ext4_read", "pipe_read", "sock_read"}
	for i, w := range wantOrder {
		if ts[i].Name != w {
			t.Errorf("SortedTargets[%d] = %s, want %s", i, ts[i].Name, w)
		}
	}
}

func TestSortedTargetsTieBreak(t *testing.T) {
	p := New()
	p.AddIndirect(1, "f", "zzz", 10)
	p.AddIndirect(1, "f", "aaa", 10)
	ts := p.Sites[1].SortedTargets()
	if ts[0].Name != "aaa" {
		t.Errorf("equal-count targets must sort by name; got %s first", ts[0].Name)
	}
}

func TestMerge(t *testing.T) {
	a, b := sample(), sample()
	a.Merge(b)
	if a.Ops != 84 {
		t.Errorf("Ops = %d, want 84", a.Ops)
	}
	if a.Sites[1].Count != 2000 {
		t.Errorf("direct count = %d, want 2000", a.Sites[1].Count)
	}
	if a.Sites[2].Targets["ext4_read"] != 1600 {
		t.Errorf("target count = %d, want 1600", a.Sites[2].Targets["ext4_read"])
	}
	if a.Invocations["vfs_read"] != 2000 {
		t.Errorf("invocations = %d, want 2000", a.Invocations["vfs_read"])
	}
}

func TestSitesSortedHottestFirstDeterministic(t *testing.T) {
	p := New()
	p.AddDirect(3, "a", "x", 50)
	p.AddDirect(1, "b", "y", 100)
	p.AddDirect(2, "c", "z", 100)
	got := p.SitesSorted()
	wantIDs := []ir.SiteID{1, 2, 3} // 100(1), 100(2) by ID, then 50
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Errorf("SitesSorted[%d].ID = %d, want %d", i, got[i].ID, w)
		}
	}
}

func TestTargetDistribution(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.AddIndirect(ir.SiteID(10+i), "f", "t0", 1)
	}
	p.AddIndirect(20, "g", "t0", 1)
	p.AddIndirect(20, "g", "t1", 1)
	for j := 0; j < 9; j++ {
		p.AddIndirect(30, "h", "t"+string(rune('0'+j)), 1)
	}
	dist := p.TargetDistribution()
	if dist[1] != 3 || dist[2] != 1 || dist[7] != 1 {
		t.Errorf("TargetDistribution = %v, want 1:3 2:1 7:1", dist)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Ops != p.Ops {
		t.Errorf("Ops = %d, want %d", got.Ops, p.Ops)
	}
	if !reflect.DeepEqual(got.Invocations, p.Invocations) {
		t.Errorf("Invocations = %v, want %v", got.Invocations, p.Invocations)
	}
	if !reflect.DeepEqual(got.Sites[2].Targets, p.Sites[2].Targets) {
		t.Errorf("Targets = %v, want %v", got.Sites[2].Targets, p.Sites[2].Targets)
	}
	if got.Sites[1].Callee != "vfs_read" {
		t.Errorf("Callee = %q, want vfs_read", got.Sites[1].Callee)
	}
}

func TestSerializeDeterministic(t *testing.T) {
	p := sample()
	var a, b bytes.Buffer
	p.WriteTo(&a)
	p.WriteTo(&b)
	if a.String() != b.String() {
		t.Fatal("two serializations of the same profile differ")
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"bad magic":        "nonsense v9\n",
		"empty":            "",
		"bad record":       magic + "\nbogus 1 2\n",
		"bad ops":          magic + "\nops many\n",
		"short site":       magic + "\nsite 1 f\n",
		"bad target":       magic + "\nsite 1 f indirect 5 ext4read5\n",
		"sum mismatch":     magic + "\nsite 1 f indirect 5 a:1 b:1\n",
		"bad direct count": magic + "\nsite 1 f direct g x\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
}

// Property: serialization round-trips arbitrary profiles.
func TestSerializeRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		p.Ops = uint64(rng.Intn(10000))
		nsites := rng.Intn(30)
		for i := 0; i < nsites; i++ {
			id := ir.SiteID(i + 1)
			if rng.Intn(2) == 0 {
				p.AddDirect(id, fname(rng), fname(rng), uint64(rng.Intn(100000)+1))
			} else {
				nt := rng.Intn(5) + 1
				caller := fname(rng)
				for j := 0; j < nt; j++ {
					p.AddIndirect(id, caller, fname(rng)+string(rune('a'+j)), uint64(rng.Intn(5000)+1))
				}
			}
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: read: %v\n%s", seed, err, buf.String())
			return false
		}
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Logf("seed %d: rewrite: %v", seed, err)
			return false
		}
		if buf.String() != buf2.String() {
			t.Logf("seed %d: mismatch:\nA:\n%s\nB:\n%s", seed, buf.String(), buf2.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func fname(rng *rand.Rand) string {
	names := []string{"vfs_read", "ext4_write", "tcp_sendmsg", "do_fork", "sock_poll", "pipe_write"}
	return names[rng.Intn(len(names))]
}
