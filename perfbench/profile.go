package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	pibe "repro"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/workload"
)

// The profile workload: each op is one System.Profile of a flavor drawn
// from lmbench, apache, nginx and dbench. A recorder rides on every
// machine, so the runs always take the interpreter path, with no cpu
// model, and the prof layer lifts the counts.

const (
	// profileRate is the nominal profile ops per second on the reference box.
	profileRate = 42.0
	// profileScale multiplies each flavor's mix (System.Profile's
	// opsScale); 5 is what `pibe profile`, the examples and the paper
	// tables use.
	profileScale = 5
)

var profileFlavors = []pibe.Workload{pibe.LMBench, pibe.Apache, pibe.Nginx, pibe.DBench}

// profResult condenses one collected profile for comparison.
type profResult struct {
	digest uint64
	bytes  int
	sites  int
	ops    uint64
	bad    string // the first internal inconsistency found, "" if none
}

func condense(p *prof.Profile) profResult {
	data := serialize(p)
	h := fnv.New64a()
	h.Write(data)
	r := profResult{digest: h.Sum64(), bytes: len(data), sites: len(p.Sites), ops: p.Ops}
	for _, s := range p.Sites {
		if !s.Indirect() {
			continue
		}
		var sum uint64
		for _, c := range s.Targets {
			sum += c
		}
		if sum != s.Count {
			r.bad = fmt.Sprintf("site %d: targets sum to %d, the site counts %d", s.ID, sum, s.Count)
			break
		}
	}
	return r
}

// profRef is the interpreter reference for one flavor: its profile and
// the runs the reference executed.
type profRef struct {
	profResult
	runs uint64
}

type profileW struct {
	cfg     config
	sys     *pibe.System
	prog    *interp.Program // replay program, compiled from a copy of the kernel
	scale   int
	sched   []pibe.Workload
	ntraced int          // ops a traced loop replays
	results []profResult // untraced result per op
	refs    map[pibe.Workload]profRef
	traced  []profResult // traced replay per op
}

func (w *profileW) workers() string { return "1" }
func (w *profileW) close()          {}

func (w *profileW) setup() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	w.sys, w.prog, w.scale = sys, nil, profileScale
	rounds := roundsFor(w.cfg, len(profileFlavors), profileRate)
	if w.cfg.tiny {
		w.scale = 1
		rounds = (minOps + len(profileFlavors) - 1) / len(profileFlavors)
	}
	w.sched = nil
	for _, i := range schedule(w.cfg.seed, len(profileFlavors), rounds) {
		w.sched = append(w.sched, profileFlavors[i])
	}
	w.ntraced = tracedOps(len(profileFlavors), rounds)
	return nil
}

func (w *profileW) warmup() error {
	for _, f := range profileFlavors {
		if _, err := w.sys.Profile(f, w.scale); err != nil {
			return err
		}
	}
	return nil
}

func (w *profileW) loop(l *opLog, tr *tracer) error {
	if err := w.prepareReplay(); err != nil {
		return err
	}
	sched := w.sched
	if tr == nil {
		w.results = nil
	} else {
		sched = sched[:w.ntraced]
	}
	w.traced = nil
	l.begin()
	for i, f := range sched {
		var p *prof.Profile
		if tr == nil {
			l.do(func() error {
				pp, err := w.sys.Profile(f, w.scale)
				if pp != nil {
					p = pp.Raw()
				}
				return err
			})
		} else {
			tr.setOp(i)
			l.do(func() error {
				return tr.span("op", func() (err error) {
					p, _, err = w.replay(f, interp.EngineCompiled, tr)
					return err
				})
			})
		}
		var r profResult
		if p != nil {
			l.check(func() { r = condense(p) })
		}
		if tr == nil {
			w.results = append(w.results, r)
			continue
		}
		w.traced = append(w.traced, r)
		if !l.failed[i] && r.digest != w.results[i].digest {
			l.fail(i, "traced replay of %s differs from the untraced op's profile", f)
		}
	}
	l.end()
	return nil
}

func (w *profileW) prepareReplay() error {
	if w.prog != nil {
		return nil
	}
	prog, err := interp.Compile(w.sys.Kernel.Mod.Clone())
	w.prog = prog
	return err
}

func (w *profileW) verify(l *opLog) error {
	w.refs = map[pibe.Workload]profRef{}
	for _, f := range w.sched {
		if _, done := w.refs[f]; done {
			continue
		}
		p, runs, err := w.replay(f, interp.EngineInterp, nil)
		if err != nil {
			return fmt.Errorf("%s interpreter reference: %w", f, err)
		}
		ref := profRef{condense(p), runs}
		if w.cfg.corrupt && len(w.refs) == 0 {
			ref.digest ^= 1
		}
		w.refs[f] = ref
	}
	for i, f := range w.sched {
		got, ref := w.results[i], w.refs[f]
		switch {
		case l.failed[i]:
		case got.bad != "":
			l.fail(i, "%s profile is inconsistent: %s", f, got.bad)
		case got.ops != ref.runs:
			l.fail(i, "%s profile counts %d ops, the reference executed %d runs", f, got.ops, ref.runs)
		case got.digest != ref.digest:
			l.fail(i, "%s profile differs from the interpreter reference", f)
		}
	}
	return nil
}

// planStep is one benchmark of a profiling run: its entry and run count.
type planStep struct{ fi, n int }

// profilePlan mirrors workload.Runner.Profile: the flavor's mix in sorted
// benchmark order, weight × scale runs each, except that LMBench gives
// every test an equal time slice, so its run counts are inverse to
// latency.
func profilePlan(k *kernel.Kernel, prog *interp.Program, f pibe.Workload, scale int) ([]planStep, error) {
	mix := workload.Mix(f)
	benches := make([]string, 0, len(mix))
	for b := range mix {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	cycles := map[string]int64{}
	for _, s := range k.Specs {
		cycles[s.Name] = s.Cycles
	}
	var plan []planStep
	for _, b := range benches {
		fi := prog.FuncIndex(k.Entries[b])
		if fi < 0 {
			return nil, fmt.Errorf("%s mix: no entry for %q", f, b)
		}
		n := mix[b] * scale
		if c := cycles[b]; f == pibe.LMBench && c > 0 {
			n = max(int(int64(mix[b]*scale)*120_000/c), 2)
		}
		plan = append(plan, planStep{fi, n})
	}
	return plan, nil
}

// replay re-runs one System.Profile from the benchmark: the same runner
// seed, machine seed and run plan, with a recorder on the machine. It
// returns the lifted profile and the runs it executed.
func (w *profileW) replay(f pibe.Workload, eng interp.Engine, tr *tracer) (*prof.Profile, uint64, error) {
	k := w.sys.Kernel
	seed := 1000 + int64(f) // System.Profile's runner seed
	var r *workload.Runner
	err := tr.span("workload.new_runner", func() (err error) {
		r, err = workload.NewRunner(k, w.prog, f, seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	plan, err := profilePlan(k, w.prog, f, w.scale)
	if err != nil {
		return nil, 0, err
	}
	mc := interp.NewMachine(w.prog, seed^0x5eed)
	mc.Res = r.Res
	mc.Rec = interp.NewRecorder(w.prog)
	mc.Engine = eng
	var runs uint64
	for _, st := range plan {
		if err := runPasses(mc, []int{st.fi}, st.n, tr, "interp.rec_run"); err != nil {
			return nil, runs, err
		}
		runs += uint64(st.n)
	}
	mc.Rec.AddOps(runs)
	var p *prof.Profile
	err = tr.span("interp.recorder_lift", func() (err error) {
		p, err = mc.Rec.Profile()
		return err
	})
	return p, runs, err
}

func (w *profileW) layers(tr *tracer, l *opLog) map[string]float64 {
	tot := tr.totals()
	var sites, bytes float64
	for _, r := range w.traced {
		sites += float64(r.sites)
		bytes += float64(r.bytes)
	}
	n := float64(len(w.traced))
	return map[string]float64{
		"workload.new_runner_ms":  tot["workload.new_runner"].meanMS(),
		"interp.rec_run_us":       tot["interp.rec_run"].meanUS(),
		"interp.recorder_lift_ms": tot["interp.recorder_lift"].meanMS(),
		"prof.sites":              frac(sites, n),
		"prof.bytes":              frac(bytes, n),
	}
}
