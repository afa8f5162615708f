package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/prof"
)

// Recorder accumulates profiling counts during execution. It is the
// in-process stand-in for PIBE's Last-Branch-Record-based kernel profiler:
// counts are kept per original call site and lifted to a prof.Profile
// keyed by the site identity the optimization run will see.
//
// The counters are dense. Compile bounds every Orig below
// Program.SiteBound, so a direct edge is one slice increment and an
// indirect site's value profile is a short chain of (function index,
// count) entries, scanned linearly: kernel indirect sites see a handful
// of targets.
type Recorder struct {
	prog  *Program
	calls []uint64 // direct-call executions, indexed by Orig
	// heads holds the first entry of each indirect site's chain,
	// indexed by Orig; entries holds every chain, each in first-seen
	// order. Entry 0 is unused, so a zero head or next ends a chain and
	// a fresh allocation needs no fill; neither slice holds pointers
	// for the collector to scan.
	heads       []int32
	entries     []targetCount
	invocations []uint64 // function entries, indexed by function
	ops         uint64
}

// targetCount is one entry of an indirect site's value profile: the
// target's function index, its count and the site's next entry.
type targetCount struct {
	fn, next int32
	n        uint64
}

// NewRecorder returns a Recorder for the given program.
func NewRecorder(p *Program) *Recorder {
	return &Recorder{
		prog:        p,
		calls:       make([]uint64, p.SiteBound()),
		heads:       make([]int32, p.SiteBound()),
		entries:     make([]targetCount, 1),
		invocations: make([]uint64, p.NumFuncs()),
	}
}

func (r *Recorder) invoke(fi int32) { r.invocations[fi]++ }

func (r *Recorder) direct(orig ir.SiteID) { r.calls[orig]++ }

func (r *Recorder) indirect(orig ir.SiteID, target int32) {
	link := &r.heads[orig]
	for *link != 0 {
		e := &r.entries[*link]
		if e.fn == target {
			e.n++
			return
		}
		link = &e.next
	}
	*link = int32(len(r.entries))
	r.entries = append(r.entries, targetCount{fn: target, n: 1})
}

// AddOps notes that n workload operations were executed while recording.
func (r *Recorder) AddOps(n uint64) { r.ops += n }

// Profile lifts the recorded counts into a prof.Profile. The module that
// produced the recordings supplies each site's caller and static callee
// (Program.liftSites); a recorded site that no longer exists in the
// module is an internal inconsistency and returns an error.
func (r *Recorder) Profile() (*prof.Profile, error) {
	sites := r.prog.liftSites()
	p := prof.New()
	p.Ops = r.ops
	// Direct sites first: where cloning left one Orig both a direct and
	// an indirect call, the direct record names the site.
	for id, n := range r.calls {
		if n == 0 {
			continue
		}
		s := sites[id]
		if s.caller == 0 || s.callee == 0 {
			return nil, fmt.Errorf("interp: recorded direct site %d not present in module", id)
		}
		p.AddDirect(ir.SiteID(id), r.prog.FuncName(int(s.caller-1)), r.prog.FuncName(int(s.callee-1)), n)
	}
	for id, e := range r.heads {
		if e == 0 {
			continue
		}
		s := sites[id]
		if s.caller == 0 {
			return nil, fmt.Errorf("interp: recorded indirect site %d not present in module", id)
		}
		caller := r.prog.FuncName(int(s.caller - 1))
		for ; e != 0; e = r.entries[e].next {
			t := &r.entries[e]
			p.AddIndirect(ir.SiteID(id), caller, r.prog.FuncName(int(t.fn)), t.n)
		}
	}
	for fi, n := range r.invocations {
		if n > 0 {
			p.AddInvocation(r.prog.FuncName(fi), n)
		}
	}
	return p, nil
}

// liftSite names one original call site's caller and, for a direct
// call, its static callee, as function indices plus one: a zero caller
// marks an Orig no call in the module carries, a zero callee an
// indirect site. Indices rather than names keep the table small and
// pointer-free: it lives as long as the Program.
type liftSite struct{ caller, callee int32 }

// liftSites builds (once) and returns the table Recorder.Profile lifts
// counts through, indexed by Orig. Programs that never record never
// build it. Where cloning left copies of one original site in several
// functions, the last direct call in module order names the site, else
// the first indirect one.
func (p *Program) liftSites() []liftSite {
	p.liftOnce.Do(func() {
		sites := make([]liftSite, p.SiteBound())
		for fi, f := range p.mod.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					switch {
					case in.Op == ir.OpCall:
						sites[in.Orig] = liftSite{caller: int32(fi) + 1, callee: p.byName[in.Callee] + 1}
					case in.Op == ir.OpICall && sites[in.Orig].caller == 0:
						sites[in.Orig] = liftSite{caller: int32(fi) + 1}
					}
				}
			}
		}
		p.lift = sites
	})
	return p.lift
}
