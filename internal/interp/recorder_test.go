package interp

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernel"
)

// TestLiftAttributesClonedSites pins how the lift names a site whose
// copies sit in several functions, as inlining leaves them: the last
// direct call in module order names a direct site, the first indirect
// call an indirect one.
func TestLiftAttributesClonedSites(t *testing.T) {
	m, err := ir.ParseString(`func leaf (params=0, regs=0)
entry:
  ret

func a (params=0, regs=1)
entry:
  call @leaf args=0 site=1
  resolve r0 site=2
  icall r0 args=0 site=2
  ret

func b (params=0, regs=1)
entry:
  call @leaf args=0 site=5 orig=1
  resolve r0 site=6 orig=2
  icall r0 args=0 site=6 orig=2
  ret

func main (params=0, regs=0) [entry]
entry:
  call @a args=0 site=3
  call @b args=0 site=4
  ret
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d, err := NewDist([]int{p.FuncIndex("leaf")}, []uint64{1})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	mc := NewMachine(p, 1)
	mc.Res = NewResolver()
	mc.Res.Set(2, d)
	mc.Rec = NewRecorder(p)
	const runs = 3
	for i := 0; i < runs; i++ {
		if err := mc.Run("main"); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	pr, err := mc.Rec.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if s := pr.Sites[1]; s == nil || s.Indirect() || s.Caller != "b" || s.Callee != "leaf" || s.Count != 2*runs {
		t.Errorf("direct site 1 = %+v, want b -> leaf x%d", s, 2*runs)
	}
	if s := pr.Sites[2]; s == nil || !s.Indirect() || s.Caller != "a" || s.Targets["leaf"] != 2*runs {
		t.Errorf("indirect site 2 = %+v, want a -> {leaf: %d}", s, 2*runs)
	}
}

// TestConcurrentLiftsShareProgram: recorders on one shared Program lift
// at the same time, racing to build the program's lift table, and each
// profile equals the one a serial lift on its own Program yields. Each
// round takes a fresh Program, so every round races the build again.
// Run it under -race.
func TestConcurrentLiftsShareProgram(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	record := func(p *Program, res *Resolver, seed int64) *Recorder {
		mc := NewMachine(p, seed)
		mc.Res = res
		mc.Rec = NewRecorder(p)
		for _, sp := range k.Specs[:4] {
			if err := mc.Run(k.Entries[sp.Name]); err != nil {
				t.Fatalf("seed %d: Run %s: %v", seed, sp.Name, err)
			}
		}
		mc.Rec.AddOps(4)
		return mc.Rec
	}
	const workers, rounds = 4, 4
	// recordAll compiles a fresh Program and records one run per worker.
	recordAll := func() []*Recorder {
		p, err := Compile(k.Mod.Clone())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		res := kernelResolver(t, k, p)
		recs := make([]*Recorder, workers)
		for i := range recs {
			recs[i] = record(p, res, int64(i+1))
		}
		return recs
	}
	lift := func(r *Recorder) (string, error) {
		p, err := r.Profile()
		if err != nil {
			return "", err
		}
		return p.Hash(), nil
	}

	want := make([]string, workers)
	for i, r := range recordAll() {
		h, err := lift(r)
		if err != nil {
			t.Fatalf("serial lift %d: %v", i, err)
		}
		want[i] = h
	}
	for round := 0; round < rounds; round++ {
		recs := recordAll()
		got := make([]string, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = lift(recs[i])
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d: concurrent lift %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("round %d: concurrent lift %d hashes %s, serial lift %s", round, i, got[i], want[i])
			}
		}
	}
}
