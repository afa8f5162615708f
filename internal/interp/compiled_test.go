package interp

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/jumpswitch"
	"repro/internal/kernel"
	"repro/internal/resilience"
)

// The compiled tier's contract is byte-identical observables against
// the per-event reference loop: same resolve trace, same outcome, same
// Cycles, same Stats, same recorded profile, same injected faults, for
// any program, seed and fault mode. These tests enforce it over the
// real synthetic kernel and over fuzz-generated programs.

// enginePair is two machines over the same program — the reference
// loop and the compiled candidate — with identical seeds. Both carry
// independent CPU models, or in recorder mode a Recorder each and no
// model, so the candidate runs the model-free chain.
type enginePair struct {
	ref, cand *Machine
}

func newEnginePair(p *Program, res *Resolver, seed int64, maxDepth int, maxSteps int64, recorder bool) *enginePair {
	mk := func(eng Engine) *Machine {
		mc := NewMachine(p, seed)
		if recorder {
			mc.Rec = NewRecorder(p)
		} else {
			mc.CPU = cpu.New(cpu.DefaultParams())
		}
		mc.Res = res
		mc.Engine = eng
		if maxDepth > 0 {
			mc.MaxDepth = maxDepth
		}
		if maxSteps > 0 {
			mc.MaxSteps = maxSteps
		}
		return mc
	}
	return &enginePair{ref: mk(EngineInterp), cand: mk(EngineCompiled)}
}

// inject gives each machine of the pair its own injector, both with the
// same seed and rates, so equal draw sequences fire equal faults.
func (pair *enginePair) inject(seed int64, rates resilience.Rates) {
	pair.ref.Inject = resilience.NewInjector(seed, rates)
	pair.cand.Inject = resilience.NewInjector(seed, rates)
}

// observation is what one run shows: its outcome, an FNV digest of its
// resolve stream, the faults its injector has fired so far, and
// whichever cumulative state the machine carries — model cycles and
// stats, or the hash of its recorder's lifted profile.
type observation struct {
	outcome, digest string
	faults          string
	cycles          int64
	stats           cpu.Counters
	profile         string
}

func observedRun(mc *Machine, p *Program, entry string) observation {
	h := fnv.New64a()
	mc.OnResolve = func(orig ir.SiteID, target int32) {
		fmt.Fprintf(h, "%d>%s\n", orig, p.FuncName(int(target)))
	}
	err := mc.Run(entry)
	mc.OnResolve = nil
	ob := observation{outcome: "ok", digest: fmt.Sprintf("%016x", h.Sum64()), faults: fmt.Sprint(mc.Inject.Counts())}
	if err != nil {
		ob.outcome = err.Error()
	}
	if mc.CPU != nil {
		ob.cycles, ob.stats = mc.CPU.Cycles, mc.CPU.Stats
	}
	if mc.Rec != nil {
		if pr, err := mc.Rec.Profile(); err != nil {
			ob.profile = "lift: " + err.Error()
		} else {
			ob.profile = pr.Hash()
		}
	}
	return ob
}

// checkPair runs reps paired executions and fails on the first
// divergence. Models and recorders are not reset between reps, so warm
// predictor state (BTB/PHT/RSB/icache) and the recorded counts must also
// stay in lockstep: any drift shows up as a mismatch in a later rep.
// It returns the reference's observations.
func checkPair(t *testing.T, pair *enginePair, p *Program, entry string, reps int) []observation {
	t.Helper()
	var obs []observation
	for r := 0; r < reps; r++ {
		ref := observedRun(pair.ref, p, entry)
		cand := observedRun(pair.cand, p, entry)
		if ref.outcome != cand.outcome {
			t.Fatalf("%s rep %d: outcome diverged:\n  interp:   %s\n  compiled: %s", entry, r, ref.outcome, cand.outcome)
		}
		if ref.digest != cand.digest {
			t.Fatalf("%s rep %d: resolve digest diverged: interp %s, compiled %s", entry, r, ref.digest, cand.digest)
		}
		if ref.faults != cand.faults {
			t.Fatalf("%s rep %d: injected faults diverged: interp %s, compiled %s", entry, r, ref.faults, cand.faults)
		}
		if ref.cycles != cand.cycles {
			t.Fatalf("%s rep %d: cycles diverged: interp %d, compiled %d", entry, r, ref.cycles, cand.cycles)
		}
		if ref.stats != cand.stats {
			t.Fatalf("%s rep %d: stats diverged:\n  interp:   %+v\n  compiled: %+v", entry, r, ref.stats, cand.stats)
		}
		if ref.profile != cand.profile {
			t.Fatalf("%s rep %d: recorded profile diverged: interp %s, compiled %s", entry, r, ref.profile, cand.profile)
		}
		obs = append(obs, ref)
	}
	return obs
}

// ranCompiled reports whether mc ran on the compiled tier at least once:
// on the model-free chain, or on the charged chain against its model.
func ranCompiled(mc *Machine) bool {
	return mc.vm != nil && (mc.CPU == nil || mc.vm.model == mc.CPU)
}

// kernelResolver installs a deterministic skewed distribution for every
// site of a generated kernel.
func kernelResolver(t testing.TB, k *kernel.Kernel, p *Program) *Resolver {
	t.Helper()
	res := NewResolverSized(p.SiteBound())
	for _, site := range k.Sites {
		idx := make([]int, len(site.Targets))
		w := make([]uint64, len(site.Targets))
		for i, tgt := range site.Targets {
			idx[i] = p.FuncIndex(tgt)
			w[i] = uint64(i*i + 1)
		}
		d, err := NewDist(idx, w)
		if err != nil {
			t.Fatalf("NewDist: %v", err)
		}
		res.Set(site.ID, d)
	}
	return res
}

// TestCompiledEquivalenceKernel proves cycle-exact equivalence over the
// full synthetic kernel: every syscall entry, several machine seeds,
// warm models carried across reps.
func TestCompiledEquivalenceKernel(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	for _, seed := range []int64{1, 7, 12345} {
		for _, spec := range k.Specs {
			pair := newEnginePair(p, res, seed, 0, 0, false)
			checkPair(t, pair, p, k.Entries[spec.Name], 4)
		}
	}
}

// TestCompiledEquivalenceFaults drives both engines into every fault
// class — fuel exhaustion, depth exhaustion, unresolved sites, and
// injected traps, depth and fuel exhaustion — and requires identical
// outcomes, identical injected faults and identical partial charges.
// The -recorder subtests run the same faults on recorder machines
// without a model, so the partial profiles the model-free chain leaves
// behind must match the reference loop's byte for byte. The entry takes
// 11 steps, so a budget of 10 runs out in its last callee. Each
// injected case arms one fault kind at a rate that first fires in the
// fourth rep, so the three complete runs before it check that a slow
// path which draws and passes lets the run go on.
func TestCompiledEquivalenceFaults(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	entry := k.Entries[k.Specs[0].Name]
	for _, c := range []struct {
		name     string
		res      *Resolver
		maxDepth int
		maxSteps int64
		rates    resilience.Rates
	}{
		{"fuel", res, 0, 10, resilience.Rates{}},
		{"depth", res, 2, 0, resilience.Rates{}},
		{"unresolved", NewResolver(), 0, 0, resilience.Rates{}},
		{"trap-injected", res, 0, 0, resilience.Rates{Trap: 0.05}},
		{"depth-injected", res, 0, 0, resilience.Rates{Depth: 0.05}},
		{"fuel-injected", res, 0, 0, resilience.Rates{Fuel: 0.05}},
	} {
		run := func(t *testing.T, recorder bool) {
			pair := newEnginePair(p, c.res, 3, c.maxDepth, c.maxSteps, recorder)
			if c.rates != (resilience.Rates{}) {
				pair.inject(17, c.rates)
			}
			obs := checkPair(t, pair, p, entry, 6)
			if !ranCompiled(pair.cand) {
				t.Fatal("the compiled tier did not run")
			}
			faulted := false
			for _, ob := range obs {
				faulted = faulted || ob.outcome != "ok"
			}
			if !faulted {
				t.Fatal("the run did not fault")
			}
			if c.rates != (resilience.Rates{}) && pair.ref.Inject.Total() == 0 {
				t.Fatal("the injector fired nothing")
			}
			if recorder {
				if pr, err := pair.ref.Rec.Profile(); err != nil || len(pr.Sites) == 0 {
					t.Fatalf("partial profile = %v, %v; want recorded sites", pr, err)
				}
			}
		}
		t.Run(c.name, func(t *testing.T) { run(t, false) })
		t.Run(c.name+"-recorder", func(t *testing.T) { run(t, true) })
	}
	t.Run("refill-rsb", func(t *testing.T) {
		pair := newEnginePair(p, res, 3, 0, 0, false)
		pair.ref.RefillRSB = true
		pair.cand.RefillRSB = true
		checkPair(t, pair, p, entry, 3)
	})
}

// TestCompiledEquivalenceGeometry runs one kernel entry on both engines
// under i-cache geometries other than the default, so the compiled
// tier's two-way probe, its scan from way 2 and its line alignment meet
// sets of other sizes and other line sizes. Every geometry here has at
// least two ways, so the compiled tier must really run.
func TestCompiledEquivalenceGeometry(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	entry := k.Entries[k.Specs[0].Name]
	for _, g := range []struct {
		ways, sets int
		line       int64
	}{{2, 16, 64}, {8, 64, 32}, {8, 64, 128}} {
		par := cpu.DefaultParams()
		par.ICacheWays, par.ICacheSets, par.ICacheLine = g.ways, g.sets, g.line
		pair := newEnginePair(p, res, 5, 0, 0, false)
		pair.ref.CPU, pair.cand.CPU = cpu.New(par), cpu.New(par)
		checkPair(t, pair, p, entry, 4)
		if pair.cand.vm == nil || pair.cand.vm.model != pair.cand.CPU {
			t.Fatalf("%d ways x %d sets x %d B: the compiled tier did not run", g.ways, g.sets, g.line)
		}
		if s := pair.cand.CPU.Stats; s.ICacheHits == 0 || s.ICacheMisses == 0 {
			t.Fatalf("%d ways x %d sets x %d B: %d hits, %d misses; want both",
				g.ways, g.sets, g.line, s.ICacheHits, s.ICacheMisses)
		}
	}
}

// TestCompiledEquivalenceHook runs every seed-1 kernel entry with a
// JumpSwitches runtime on each machine, so the charged chain's hooked
// icall path meets the reference loop's on learning, patching, chain
// hits and misses. Each machine gets its own runtime, and the two
// runtimes must end in the same state.
func TestCompiledEquivalenceHook(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	var handled int64
	for _, spec := range k.Specs {
		pair := newEnginePair(p, res, 1, 0, 0, false)
		refRT, candRT := jumpswitch.New(jumpswitch.DefaultParams()), jumpswitch.New(jumpswitch.DefaultParams())
		pair.ref.Hook, pair.cand.Hook = refRT, candRT
		checkPair(t, pair, p, k.Entries[spec.Name], 4)
		if !ranCompiled(pair.cand) {
			t.Fatalf("%s: the compiled tier did not run", spec.Name)
		}
		type rtState struct {
			learning, hits, misses, patches int64
			sites                           int
		}
		state := func(rt *jumpswitch.Runtime) rtState {
			return rtState{rt.LearningHits, rt.ChainHits, rt.ChainMisses, rt.Patches, rt.ManagedSites()}
		}
		if a, b := state(refRT), state(candRT); a != b {
			t.Fatalf("%s: runtimes diverged: interp %+v, compiled %+v", spec.Name, a, b)
		}
		handled += refRT.LearningHits + refRT.ChainHits + refRT.ChainMisses
	}
	if handled == 0 {
		t.Fatal("the hook handled no icall")
	}
}

// TestMachineEdgeCases pins the two shapes that do not run the compiled
// tier as usual. A machine with both a recorder and a cpu.Model is a
// configuration fault under either engine, before anything runs. A
// model whose i-cache has one way runs the reference loop, because the
// tier's two-way probe cannot serve it, and matches an explicit
// reference machine.
func TestMachineEdgeCases(t *testing.T) {
	k, err := kernel.Generate(kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	p, err := Compile(k.Mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res := kernelResolver(t, k, p)
	entry := k.Entries[k.Specs[0].Name]

	t.Run("recorder-and-model", func(t *testing.T) {
		for _, eng := range []Engine{EngineCompiled, EngineInterp} {
			mc := NewMachine(p, 1)
			mc.Res, mc.Engine = res, eng
			mc.CPU, mc.Rec = cpu.New(cpu.DefaultParams()), NewRecorder(p)
			err := mc.Run(entry)
			if fe, ok := resilience.AsFault(err); !ok || fe.Kind != resilience.KindConfig {
				t.Fatalf("%s: Run = %v, want a config fault", eng, err)
			}
			if mc.CPU.Cycles != 0 || mc.vm != nil || len(mc.stack) != 0 {
				t.Fatalf("%s: the rejected machine ran", eng)
			}
		}
	})
	t.Run("one-way-icache", func(t *testing.T) {
		par := cpu.DefaultParams()
		par.ICacheWays = 1
		pair := newEnginePair(p, res, 5, 0, 0, false)
		pair.ref.CPU, pair.cand.CPU = cpu.New(par), cpu.New(par)
		checkPair(t, pair, p, entry, 3)
		if ranCompiled(pair.cand) {
			t.Fatal("the compiled tier ran on a one-way i-cache")
		}
	})
}

// --- fuzz -----------------------------------------------------------

// fz is a tiny splitmix64 stream for deterministic program generation.
type fz struct{ s uint64 }

func (f *fz) next() uint64 {
	f.s += 0x9e3779b97f4a7c15
	z := f.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (f *fz) n(n uint64) uint64 { return f.next() % n }

// genModule builds a random small module exercising every event kind:
// leaf chains, long jmp chains of event-free blocks (seams back to back,
// as inlining leaves them), call-free loops, probability and flag
// branches, switches (jump-table and compare-chain), direct calls,
// indirect calls, promoted resolve/cmpfn chains of up to three
// compares, and random defenses on every defendable site. Returns the
// module and its resolve sites.
func genModule(seed uint64) (*ir.Module, []ir.SiteID) {
	r := &fz{s: seed*2 + 1}
	mod := ir.NewModule()
	n := 3 + int(r.n(5))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	var sites []ir.SiteID
	// pickCallee biases toward higher indices so call graphs terminate;
	// occasional back-edges exercise recursion and depth faults.
	pickCallee := func(i int) string {
		if i < n-1 && r.n(8) != 0 {
			return names[i+1+int(r.n(uint64(n-1-i)))]
		}
		return names[r.n(uint64(n))]
	}
	for i := 0; i < n; i++ {
		b := ir.NewFunction(mod, names[i], 0)
		style := r.n(7)
		if i == 0 {
			style = 5 // the entry is always a caller
		}
		switch style {
		case 0: // straight-line leaf
			b.ALU(1 + int(r.n(30)))
			b.Ret()
		case 1: // superblock chain: jmp-merged straight-line segments
			b.ALU(int(r.n(10)))
			b.Jmp("b1")
			b.NewBlock("b1")
			b.ALU(1 + int(r.n(20)))
			if r.n(2) == 0 {
				b.Jmp("b2")
				b.NewBlock("b2")
				b.ALU(1 + int(r.n(6)))
			}
			b.Ret()
		case 2: // call-free counted loop (framed on the compiled tier: not a leaf)
			b.ALU(int(r.n(5)))
			b.Jmp("loop")
			b.NewBlock("loop")
			b.ALU(1 + int(r.n(8)))
			b.BrLoop(int32(1+r.n(6)), "loop", "out")
			b.NewBlock("out")
			b.ALU(int(r.n(4)))
			b.Ret()
		case 3: // probability diamond
			b.ALU(int(r.n(6)))
			b.BrProb(float32(r.n(101))/100, "t", "e")
			b.NewBlock("t")
			b.ALU(1 + int(r.n(10)))
			b.Jmp("j")
			b.NewBlock("e")
			b.ALU(1 + int(r.n(10)))
			b.Jmp("j")
			b.NewBlock("j")
			b.Ret()
		case 4: // switch
			k := 2 + int(r.n(4))
			targets := make([]string, k)
			for j := range targets {
				targets[j] = fmt.Sprintf("s%d", j)
			}
			b.ALU(int(r.n(6)))
			b.Switch(targets)
			for j := range targets {
				b.NewBlock(targets[j])
				b.ALU(1 + int(r.n(5)))
				b.Jmp("done")
			}
			b.NewBlock("done")
			b.Ret()
		case 6: // long jmp chain of event-free blocks
			// Merged, the chain runs as seams back to back: small blocks
			// share a 64-byte line, large ones cross one, and beyond the
			// merge depth a jmp stays. A call first frames the function
			// (no leaf); a resolve in the chain sits between two seams.
			if r.n(2) == 0 {
				b.Call(pickCallee(i), 0)
			}
			site, reg := ir.SiteID(-1), int32(0)
			for j, k := 0, 2+int(r.n(40)); j < k; j++ {
				if r.n(3) == 0 {
					b.ALU(int(r.n(30)))
				} else {
					b.ALU(int(r.n(4)))
				}
				if site < 0 && r.n(8) == 0 {
					site, reg = b.Resolve()
				}
				next := fmt.Sprintf("c%d", j)
				b.Jmp(next)
				b.NewBlock(next)
			}
			if site >= 0 {
				b.ICall(site, reg, 0)
				sites = append(sites, site)
			}
			b.Ret()
		default: // caller: direct calls, icalls, promoted chains
			b.ALU(int(r.n(12)))
			for j := 0; j < 1+int(r.n(3)); j++ {
				b.Call(pickCallee(i), int(r.n(3)))
				if r.n(3) == 0 {
					b.ALU(1 + int(r.n(5)))
				}
			}
			if r.n(2) == 0 {
				sites = append(sites, b.IndirectCall(int(r.n(3))))
			}
			if r.n(3) == 0 {
				// Promoted chain: resolve, then one to three compares,
				// each a flag branch to a direct fast path, then the
				// indirect fallback — the shape ICP emits.
				site, reg := b.Resolve()
				for j, k := 0, 1+int(r.n(3)); j < k; j++ {
					tgt, d, next := pickCallee(i), fmt.Sprintf("d%d", j), "ind"
					if j+1 < k {
						next = fmt.Sprintf("c%d", j+1)
					}
					b.CmpFn(reg, tgt)
					b.BrFlag(d, next)
					b.NewBlock(d)
					b.Call(tgt, 1)
					b.Jmp("jn")
					b.NewBlock(next)
				}
				b.ICall(site, reg, 1)
				b.Jmp("jn")
				b.NewBlock("jn")
				sites = append(sites, site)
			}
			b.Ret()
		}
	}
	// Random switch lowering, then a random defense on every edge out of
	// all the defenses that guard it.
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpSwitch && r.n(2) == 0 {
				in.JumpTable = false
			}
			if defs := guarding(in.Edge()); len(defs) > 0 {
				in.Defense = defs[r.n(uint64(len(defs)))]
			}
		})
	}
	return mod, sites
}

// guarding lists every defense whose descriptor guards edge e.
func guarding(e ir.Edge) []ir.Defense {
	var defs []ir.Defense
	for d := ir.DefNone; d < ir.NumDefenses && e != 0; d++ {
		if d.Info().Edges&e != 0 {
			defs = append(defs, d)
		}
	}
	return defs
}

// fuzzResolver installs a random distribution for every resolve site.
func fuzzResolver(r *fz, p *Program, sites []ir.SiteID, nFuncs int) (*Resolver, error) {
	res := NewResolverSized(p.SiteBound())
	for _, site := range sites {
		k := 1 + int(r.n(3))
		idx := make([]int, k)
		w := make([]uint64, k)
		for i := range idx {
			idx[i] = int(r.n(uint64(nFuncs)))
			w[i] = 1 + r.n(100)
		}
		d, err := NewDist(idx, w)
		if err != nil {
			return nil, err
		}
		res.Set(site, d)
	}
	return res, nil
}

// FuzzCompiledEquivalence generates random programs and seeds and
// asserts the compiled engine's resolve-trace digest, outcome, cycle
// count and full predictor statistics are byte-identical to the
// reference loop's — including under tight fuel and depth budgets that
// fault mid-run. In recorder mode both machines carry a Recorder and
// no model, and the recorded profiles must match instead. In injector
// mode (inject nonzero, with either a model or a recorder) each machine
// carries its own injector with equal seeds, firing traps and depth
// exhaustion at inject/512 per call and fuel exhaustion at a quarter of
// that per block, and the faults it fires must match too.
func FuzzCompiledEquivalence(f *testing.F) {
	for _, inject := range []uint8{0, 40} {
		for _, recorder := range []bool{false, true} {
			f.Add(uint64(1), int64(1), uint8(0), uint16(0), recorder, inject)
			f.Add(uint64(2), int64(99), uint8(6), uint16(120), recorder, inject)
			f.Add(uint64(3), int64(7), uint8(0), uint16(40), recorder, inject)
			f.Add(uint64(12345), int64(-5), uint8(3), uint16(0), recorder, inject)
			f.Add(uint64(77), int64(1<<40), uint8(2), uint16(9), recorder, inject)
			f.Add(uint64(0xdeadbeef), int64(42), uint8(64), uint16(500), recorder, inject)
			// Modules with long fused runs, repeat touches and several
			// compare-and-branch pairs, some budgets ending runs inside
			// them.
			f.Add(uint64(226), int64(3), uint8(0), uint16(0), recorder, inject)
			f.Add(uint64(284), int64(11), uint8(0), uint16(300), recorder, inject)
			f.Add(uint64(133), int64(5), uint8(4), uint16(77), recorder, inject)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, runSeed int64, maxDepth uint8, maxSteps uint16, recorder bool, inject uint8) {
		mod, sites := genModule(seed)
		if err := ir.Verify(mod, ir.VerifyOptions{}); err != nil {
			t.Fatalf("generated module does not verify: %v", err)
		}
		p, err := Compile(mod)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		r := &fz{s: seed ^ 0xabcdef}
		res, err := fuzzResolver(r, p, sites, mod.NumFuncs())
		if err != nil {
			t.Fatalf("resolver: %v", err)
		}
		// maxDepth 0 keeps the default; small values exercise depth
		// faults. maxSteps likewise for fuel faults.
		pair := newEnginePair(p, res, runSeed, int(maxDepth), int64(maxSteps), recorder)
		if inject != 0 {
			r := float64(inject) / 512
			pair.inject(runSeed, resilience.Rates{Trap: r, Depth: r, Fuel: r / 4})
		}
		checkPair(t, pair, p, "f0", 3)
		if !ranCompiled(pair.cand) {
			t.Fatal("the compiled tier did not run")
		}
	})
}

// BenchmarkMachineRunCompiled is the compiled-tier half of the
// dispatch microbenchmark pair (BenchmarkMachineRun in engine_test.go
// is the reference-loop half): same program, same mix, Engine set.
func BenchmarkMachineRunCompiled(b *testing.B) {
	mc := newDispatchBenchMachine(b)
	mc.Engine = EngineCompiled
	idx := mc.Prog.FuncIndex("entry")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.RunIndex(idx); err != nil {
			b.Fatal(err)
		}
	}
}
