package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"time"

	pibe "repro"
	"repro/internal/cpu"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/prof"
	"repro/internal/workload"
)

// The measure workload: each op is one Image.MeasureBenchmark (an LMBench
// test) or Image.MeasureRequestCycles (one apache, nginx or dbench
// request) on the threaded-code engine with one measure worker. No pass
// runs in the loop; the time goes to the compiled tier and the cpu model.

// measureRate is the nominal measure ops per second on the reference box.
const measureRate = 28.0

// pibeBudgets are PIBE's default budgets, the paper's "lax heuristics"
// optimum: ICP 99.999%, inlining 99.9999% with the size rules lifted
// inside 99%.
var pibeBudgets = pibe.OptimizeConfig{ICPBudget: 0.99999, InlineBudget: 0.999999, LaxBudget: 0.99}

// imageSpec is one prebuilt image: a sweep combo ("" for no defenses),
// built unoptimized or at PIBE's budgets.
type imageSpec struct {
	combo string
	opt   bool
}

func (s imageSpec) String() string {
	name, opt := s.combo, "unopt"
	if name == "" {
		name = "none"
	}
	if s.opt {
		opt = "pibe"
	}
	return name + "/" + opt
}

// measureImages are {no defenses, all} × {unoptimized, PIBE budgets},
// plus the three post-2021 backends at PIBE budgets.
var measureImages = []imageSpec{
	{"", false}, {"", true}, {"all", false}, {"all", true},
	{"fineibt", true}, {"pac-cfi", true}, {"verifence", true},
}

// mtarget is what one op measures: an LMBench test or, with bench "",
// one request of an application workload.
type mtarget struct {
	bench string
	app   pibe.Workload
}

func (t mtarget) String() string {
	if t.bench != "" {
		return t.bench
	}
	return t.app.String() + "-request"
}

// mpair names one op: an image and a target.
type mpair struct{ img, tgt int }

type measureW struct {
	cfg     config
	sys     *pibe.System
	specs   []imageSpec
	images  []*pibe.Image
	hot     []string // the LMBench profile's functions, most invoked first
	targets []mtarget
	sched   []mpair
	ntraced int                 // ops a traced loop replays
	cycles  []float64           // untraced result per op
	refs    map[mpair]replayOut // interpreter reference per pair
	progs   []*interp.Program   // replay program per image
	micro   []cpuMicro          // per image
	outs    []replayOut         // traced replay per op
}

func (m *measureW) workers() string {
	return "1 (one measure worker); 2 for the untimed interpreter references"
}

func (m *measureW) close() {}

func (m *measureW) setup() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	sys.SetMeasureWorkers(1)
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		return fmt.Errorf("lmbench profile: %w", err)
	}
	m.specs = measureImages
	if m.cfg.tiny {
		m.specs = []imageSpec{measureImages[0], measureImages[3]}
	}
	m.images = nil
	for _, s := range m.specs {
		d, err := comboDefenses(s.combo)
		if err != nil {
			return err
		}
		bc := pibe.BuildConfig{Defenses: d}
		if s.opt {
			bc.Profile, bc.Optimize = p, pibeBudgets
		}
		img, err := sys.Build(bc)
		if err != nil {
			return fmt.Errorf("build %s: %w", s, err)
		}
		m.images = append(m.images, img)
	}
	m.sys, m.hot, m.progs, m.refs = sys, hotFunctions(p.Raw()), nil, nil

	// Target 0 is the cheapest, null; warmup relies on it.
	m.targets = nil
	for _, s := range sys.Kernel.Specs {
		m.targets = append(m.targets, mtarget{bench: s.Name})
	}
	for _, a := range []pibe.Workload{pibe.Apache, pibe.Nginx, pibe.DBench} {
		m.targets = append(m.targets, mtarget{app: a})
	}
	n := len(m.images) * len(m.targets)
	rounds := roundsFor(m.cfg, n, measureRate)
	if m.cfg.tiny {
		m.targets = []mtarget{{bench: "null"}, {bench: "stat"}, {bench: "tcp"}, {app: pibe.Nginx}}
		n = len(m.images) * len(m.targets)
		rounds = (minOps + n - 1) / n
	}
	m.sched = nil
	for _, i := range schedule(m.cfg.seed, n, rounds) {
		m.sched = append(m.sched, mpair{i / len(m.targets), i % len(m.targets)})
	}
	m.ntraced = tracedOps(n, rounds)
	return nil
}

// warmup measures null once per image, so the library builds each
// image's threaded code before the timed loop.
func (m *measureW) warmup() error {
	for i := range m.images {
		if _, err := m.op(mpair{i, 0}); err != nil {
			return err
		}
	}
	return nil
}

func (m *measureW) op(p mpair) (float64, error) {
	img, t := m.images[p.img], m.targets[p.tgt]
	if t.bench != "" {
		lat, err := img.MeasureBenchmark(pibe.LMBench, t.bench)
		return lat.Cycles, err
	}
	return img.MeasureRequestCycles(t.app)
}

func (m *measureW) loop(l *opLog, tr *tracer) error {
	if tr != nil {
		if err := m.prepareTrace(); err != nil {
			return err
		}
	}
	sched := m.sched
	if tr == nil {
		m.cycles = nil
	} else {
		sched = sched[:m.ntraced]
	}
	m.outs = nil
	l.begin()
	for i, p := range sched {
		if tr == nil {
			var c float64
			l.do(func() (err error) {
				c, err = m.op(p)
				return err
			})
			m.cycles = append(m.cycles, c)
			continue
		}
		tr.setOp(i)
		var out replayOut
		l.do(func() error {
			return tr.span("op", func() (err error) {
				out, err = m.replay(p, interp.EngineCompiled, tr)
				return err
			})
		})
		m.outs = append(m.outs, out)
		if !l.failed[i] {
			l.check(func() { m.checkTraced(l, i, out) })
		}
	}
	l.end()
	return nil
}

// prepareReplay compiles one replay program per image. Compile only
// lays the module out again at the same addresses, so the program can
// share the image's module.
func (m *measureW) prepareReplay() error {
	if m.progs != nil {
		return nil
	}
	for i, img := range m.images {
		prog, err := interp.Compile(img.Mod)
		if err != nil {
			return fmt.Errorf("replay program for %s: %w", m.specs[i], err)
		}
		m.progs = append(m.progs, prog)
	}
	return nil
}

// prepareTrace builds each replay program's threaded code and times the
// cpu model's methods on each image, outside the traced loop.
func (m *measureW) prepareTrace() error {
	if err := m.prepareReplay(); err != nil {
		return err
	}
	m.micro = nil
	for i, prog := range m.progs {
		if _, err := m.replay(mpair{i, 0}, interp.EngineCompiled, nil); err != nil {
			return err
		}
		d, err := comboDefenses(m.specs[i].combo)
		if err != nil {
			return err
		}
		hc := hardenConfig(d)
		m.micro = append(m.micro, timeCPU(prog, m.hot, hc.ForwardDefense(), hc.BackwardDefense()))
	}
	return nil
}

func (m *measureW) describe(p mpair) string {
	return fmt.Sprintf("%s on %s", m.targets[p.tgt], m.specs[p.img])
}

func (m *measureW) verify(l *opLog) error {
	if err := m.prepareReplay(); err != nil {
		return err
	}
	var pairs []mpair
	seen := map[mpair]bool{}
	for _, p := range m.sched {
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	refs := make([]replayOut, len(pairs))
	// The references are untimed; one goroutine per core halves their
	// wall time.
	err := workload.RunCells(len(pairs), 2, func(i int) (err error) {
		refs[i], err = m.replay(pairs[i], interp.EngineInterp, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("interpreter reference: %w", err)
	}
	if m.cfg.corrupt {
		refs[0].cycles++
	}
	m.refs = make(map[mpair]replayOut, len(pairs))
	for i, p := range pairs {
		m.refs[p] = refs[i]
	}
	for i, p := range m.sched {
		if ref := m.refs[p]; !l.failed[i] && m.cycles[i] != ref.cycles {
			l.fail(i, "%s: %v cycles, interpreter reference %v", m.describe(p), m.cycles[i], ref.cycles)
		}
	}
	return nil
}

// checkTraced compares a traced replay with the untraced op and with the
// interpreter reference, counter by counter.
func (m *measureW) checkTraced(l *opLog, i int, out replayOut) {
	p := m.sched[i]
	switch ref := m.refs[p]; {
	case out.cycles != m.cycles[i]:
		l.fail(i, "replayed %s: %v cycles, untraced op %v", m.describe(p), out.cycles, m.cycles[i])
	case !out.sameRuns(ref):
		l.fail(i, "replayed %s: compiled-tier cycles or counters differ from the interpreter reference", m.describe(p))
	}
}

// tally accumulates cpu.Model state over the cells of one op.
type tally struct {
	cycles int64
	c      cpu.Counters
}

// modelTally reads a model's cycles and counters.
func modelTally(m *cpu.Model) tally { return tally{m.Cycles, m.Stats} }

func (t *tally) add(o tally) {
	t.cycles += o.cycles
	dst, src := reflect.ValueOf(&t.c).Elem(), reflect.ValueOf(o.c)
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
}

// replayOut is what one replayed measure op observed: the per-repetition
// cycle samples whose median the library reports, and the cpu model's
// cycles and counters over the warm-up and the timed runs.
type replayOut struct {
	samples     []float64
	cycles      float64
	warm, timed tally
}

func (a replayOut) sameRuns(b replayOut) bool {
	return slices.Equal(a.samples, b.samples) && a.warm == b.warm && a.timed == b.timed
}

// cellPlan is how the library's sharded measurement runs one op: reps cells,
// each a fresh machine and cpu model seeded from (seed, key, rep) that
// runs warm passes, resets the model, and runs timed passes over script.
type cellPlan struct {
	seed        int64
	key         string
	script      []int
	warm, timed int
	reps        int
}

func (m *measureW) cellPlan(r *workload.Runner, prog *interp.Program, t mtarget) (cellPlan, error) {
	k := m.sys.Kernel
	if t.bench == "" {
		var script []int
		for _, b := range workload.Request(t.app) {
			fi := prog.FuncIndex(k.Entries[b])
			if fi < 0 {
				return cellPlan{}, fmt.Errorf("%s request: no entry for %q", t.app, b)
			}
			script = append(script, fi)
		}
		// MeasureRequestCycles: 5 repetitions of 10 warm-up and 30 timed
		// requests.
		return cellPlan{seed: r.Seed + 977, key: "request:" + t.app.String(), script: script, warm: 10, timed: 30, reps: 5}, nil
	}
	fi := prog.FuncIndex(k.Entries[t.bench])
	if fi < 0 {
		return cellPlan{}, fmt.Errorf("no entry for %q", t.bench)
	}
	ops := 20
	for _, s := range k.Specs {
		if s.Name == t.bench {
			ops = min(max(int(r.RepCycles/(s.Cycles+1)), 4), 400)
		}
	}
	return cellPlan{seed: r.Seed, key: t.bench, script: []int{fi}, warm: max(ops/4, 2), timed: ops, reps: r.Reps}, nil
}

// repSeed is the library's per-cell seed derivation.
func repSeed(base int64, key string, rep int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	io.WriteString(h, key)
	binary.LittleEndian.PutUint64(buf[:], uint64(rep))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// replay re-runs one measure op from the benchmark, the way the library's
// sharded measurement runs it at one worker: the same derived cell seeds, a
// fresh machine and cpu model per repetition, warm-up, Reset, timed runs.
// On either engine its median must equal the library op's result.
func (m *measureW) replay(p mpair, eng interp.Engine, tr *tracer) (replayOut, error) {
	prog, t := m.progs[p.img], m.targets[p.tgt]
	// The runner seeds of Image.MeasureBenchmark and MeasureRequestCycles.
	flavor, seed := pibe.LMBench, int64(71)
	if t.bench == "" {
		flavor, seed = t.app, 73
	}
	var r *workload.Runner
	err := tr.span("workload.new_runner", func() (err error) {
		r, err = workload.NewRunner(m.sys.Kernel, prog, flavor, seed)
		return err
	})
	if err != nil {
		return replayOut{}, err
	}
	c, err := m.cellPlan(r, prog, t)
	if err != nil {
		return replayOut{}, err
	}
	out := replayOut{samples: make([]float64, c.reps)}
	for rep := range out.samples {
		var mc *interp.Machine
		tr.span("workload.cell_setup", func() error {
			mc = interp.NewMachine(prog, repSeed(c.seed, c.key, rep))
			mc.CPU = cpu.New(r.CPU.P)
			mc.Res = r.Res
			mc.Engine = eng
			return nil
		})
		if err := tr.span("workload.warmup", func() error { return runPasses(mc, c.script, c.warm, tr, "interp.run") }); err != nil {
			return out, err
		}
		out.warm.add(modelTally(mc.CPU))
		mc.CPU.Reset()
		if err := runPasses(mc, c.script, c.timed, tr, "interp.run"); err != nil {
			return out, err
		}
		out.timed.add(modelTally(mc.CPU))
		out.samples[rep] = float64(mc.CPU.Cycles) / float64(c.timed)
	}
	out.cycles = median(out.samples)
	return out, nil
}

// runPasses runs every entry of script, passes times, one span each.
func runPasses(mc *interp.Machine, script []int, passes int, tr *tracer, name string) error {
	for i := 0; i < passes; i++ {
		for _, fi := range script {
			id := tr.begin(name)
			err := mc.RunIndex(fi)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// hotFunctions lists the profile's invoked functions, most invoked first.
func hotFunctions(p *prof.Profile) []string {
	fns := make([]string, 0, len(p.Invocations))
	for fn := range p.Invocations {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := p.Invocations[fns[i]], p.Invocations[fns[j]]
		if a != b {
			return a > b
		}
		return fns[i] < fns[j]
	})
	return fns
}

// cpuMicro is the cost in ns of one call of each cpu.Model method the
// engines charge events through, timed in isolation over one image's own
// addresses (each figure includes one closure call).
type cpuMicro struct {
	touchHit, touchMiss float64 // TouchLine on a resident, an evicted line
	icall               float64 // IndirectCall under the image's forward defense
	ret                 float64 // a DirectCall and its Return under the backward defense
	cond                float64 // CondBranch, about half taken
}

func timeCPU(prog *interp.Program, hot []string, fwd, bwd ir.Defense) cpuMicro {
	const line = 64
	mod := prog.Module()
	var funcs, hotLines, allLines []int64
	for _, name := range hot {
		if fi := prog.FuncIndex(name); fi >= 0 {
			funcs = append(funcs, prog.FuncAddr(fi))
			for a := prog.FuncAddr(fi) &^ (line - 1); a < prog.FuncAddr(fi)+mod.Funcs[fi].ByteSize(); a += line {
				hotLines = append(hotLines, a)
			}
		}
	}
	for fi, f := range mod.Funcs {
		for a := prog.FuncAddr(fi) &^ (line - 1); a < prog.FuncAddr(fi)+f.ByteSize() && len(allLines) < 4096; a += line {
			allLines = append(allLines, a)
		}
	}
	if len(funcs) == 0 {
		funcs, hotLines = allLines, allLines
	}
	// Power-of-two working sets, indexed by mask rather than modulo: 256
	// lines fit the 512-line i-cache, 4096 sweep it.
	funcs, hotLines, allLines = cycle(funcs, 256), cycle(hotLines, 256), cycle(allLines, 4096)
	taken := make([]bool, 1024)
	src := uint64(0x9e3779b97f4a7c15)
	for i := range taken {
		src = src*6364136223846793005 + 1442695040888963407
		taken[i] = src>>63 == 1
	}
	m := cpu.New(cpu.DefaultParams())
	return cpuMicro{
		// Straight-line code touches a line several times in a row.
		touchHit:  perCall(1<<18, func(i int) { m.TouchLine(hotLines[(i>>2)&255]) }),
		touchMiss: perCall(1<<16, func(i int) { m.TouchLine(allLines[i&4095]) }),
		icall: perCall(1<<18, func(i int) {
			s := funcs[i&255]
			m.IndirectCall(s+8, funcs[(i*7)&255], s+16, 0, fwd)
		}),
		ret: perCall(1<<18, func(i int) {
			r := funcs[i&255] + 16
			m.DirectCall(r, 0)
			m.Return(r, bwd)
		}),
		cond: perCall(1<<18, func(i int) { m.CondBranch(hotLines[i&255], taken[i&1023]) }),
	}
}

// cycle repeats xs to exactly n entries.
func cycle(xs []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = xs[i%len(xs)]
	}
	return out
}

// perCall times n calls of f and returns the fastest of three passes in
// ns per call.
func perCall(n int, f func(i int)) float64 {
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return best
}

func (m *measureW) layers(tr *tracer, l *opLog) map[string]float64 {
	tot := tr.totals()
	var all tally
	var touchNS, icallNS, retNS, condNS float64
	for i, out := range m.outs {
		op := out.warm
		op.add(out.timed)
		mi, c := m.micro[m.sched[i].img], op.c
		touchNS += float64(c.ICacheHits)*mi.touchHit + float64(c.ICacheMisses)*mi.touchMiss
		icallNS += float64(c.IndirectCalls) * mi.icall
		retNS += float64(c.Returns) * mi.ret
		condNS += float64(c.PHTHits+c.PHTMisses) * mi.cond
		all.add(op)
	}
	c := all.c
	probes := float64(c.ICacheHits + c.ICacheMisses)
	run := tot["interp.run"]
	return map[string]float64{
		"interp.run_us":            run.meanUS(),
		"interp.sim_mcycles_per_s": frac(float64(all.cycles)/1e6, run.dur.Seconds()),
		"workload.cell_setup_us":   tot["workload.cell_setup"].meanUS(),
		"workload.warmup_share":    frac(float64(tot["workload.warmup"].dur), float64(tot["op"].dur)),
		"workload.new_runner_ms":   tot["workload.new_runner"].meanMS(),
		"cpu.icache_probes_per_op": frac(probes, float64(len(m.outs))),
		"cpu.icache_miss_ratio":    frac(float64(c.ICacheMisses), probes),
		"cpu.btb_miss_ratio":       frac(float64(c.BTBMisses), float64(c.BTBHits+c.BTBMisses)),
		"cpu.rsb_miss_ratio":       frac(float64(c.RSBMisses), float64(c.RSBHits+c.RSBMisses)),
		"cpu.pht_miss_ratio":       frac(float64(c.PHTMisses), float64(c.PHTHits+c.PHTMisses)),
		"cpu.thunked_share":        frac(float64(c.ThunkedCalls+c.ThunkedRets), float64(c.IndirectCalls+c.Returns)),
		"cpu.touchlines_ns":        frac(touchNS, probes),
		"cpu.icall_ns":             frac(icallNS, float64(c.IndirectCalls)),
		"cpu.return_ns":            frac(retNS, float64(c.Returns)),
		"cpu.condbranch_ns":        frac(condNS, float64(c.PHTHits+c.PHTMisses)),
		"cpu.est_share":            frac(touchNS+icallNS+retNS+condNS, float64(run.dur)),
	}
}
