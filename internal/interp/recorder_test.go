package interp

import (
	"fmt"
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

// TestConcurrentLiftsShareProgram: recorders on one shared Program
// record on the compiled tier's model-free chain at the same time, then
// lift at the same time, racing to build the program's chain and its
// lift table, and each profile equals the one a serial interpreter run
// on its own Program yields. Each round takes a fresh Program, so every
// round races both builds again. Run it under -race.
func TestConcurrentLiftsShareProgram(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	compile := func() (*Program, *Resolver) {
		p, err := Compile(k.Mod.Clone())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		return p, kernelResolver(t, k, p)
	}
	record := func(p *Program, res *Resolver, seed int64, eng Engine) (*Recorder, error) {
		mc := NewMachine(p, seed)
		mc.Res = res
		mc.Rec = NewRecorder(p)
		mc.Engine = eng
		for _, sp := range k.Specs[:4] {
			if err := mc.Run(k.Entries[sp.Name]); err != nil {
				return nil, fmt.Errorf("seed %d: Run %s: %v", seed, sp.Name, err)
			}
		}
		if eng == EngineCompiled && !ranCompiled(mc) {
			return nil, fmt.Errorf("seed %d: the compiled tier did not run", seed)
		}
		mc.Rec.AddOps(4)
		return mc.Rec, nil
	}
	lift := func(r *Recorder) (string, error) {
		p, err := r.Profile()
		if err != nil {
			return "", err
		}
		return p.Hash(), nil
	}
	const workers, rounds = 4, 4

	want := make([]string, workers)
	p, res := compile()
	for i := range want {
		r, err := record(p, res, int64(i+1), EngineInterp)
		if err == nil {
			want[i], err = lift(r)
		}
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
	}
	// together runs f(i) for every worker at once and waits for all.
	together := func(f func(i int)) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				f(i)
			}(i)
		}
		close(start)
		wg.Wait()
	}
	for round := 0; round < rounds; round++ {
		p, res := compile()
		recs := make([]*Recorder, workers)
		got := make([]string, workers)
		errs := make([]error, workers)
		together(func(i int) { recs[i], errs[i] = record(p, res, int64(i+1), EngineCompiled) })
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: concurrent run %d: %v", round, i, err)
			}
		}
		together(func(i int) { got[i], errs[i] = lift(recs[i]) })
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d: concurrent lift %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("round %d: concurrent profile %d hashes %s, serial interpreter %s", round, i, got[i], want[i])
			}
		}
	}
}
