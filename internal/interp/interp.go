// Package interp executes IR modules. It serves three roles in the
// pipeline, mirroring how the paper uses its profiling and production
// kernel binaries:
//
//   - the profiling run: execution records per-site counts and
//     indirect-target value profiles into a Recorder;
//   - the measurement run: execution drives the cpu.Model, producing
//     cycle counts for each workload operation;
//   - functional validation: transforms must preserve behaviour, which
//     tests check by comparing execution traces before and after.
//
// Compile lowers a module to a packed event stream (Program) in which
// straight-line instruction runs are pre-aggregated, so execution cost
// is proportional to control-flow events rather than instruction count.
// Two engines run it. The threaded-code tier (compiled.go) is the one
// every machine runs by default. The reference loop in this file (exec,
// selected by EngineInterp) runs the same stream one event at a time on
// an explicit frame stack, with none of that tier's batching, frameless
// calls or fused closures; the equivalence tests and
// diffcheck.ValidateEngines check the tier against it.
package interp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/resilience"
)

// ckind discriminates compiled instructions. Straight-line runs are not
// instructions at this level at all: compilation folds each run's
// aggregated cost into the preCost/preCount of the control-flow event
// that follows it, so the engines only ever visit events.
type ckind uint8

const (
	cResolve ckind = iota // function-pointer load
	cCmpFn                // compare register against function
	cBr                   // conditional branch
	cJmp                  // unconditional branch
	cSwitch               // multiway branch
	cCall                 // direct call
	cICall                // indirect call
	cRet                  // return
	cStep                 // superblock seam: the entry accounting of a merged jump target
)

// cinstr is one compiled control-flow event. The layout is deliberately
// compact — 56 bytes, under one cache line — so the kernel's event
// stream fits in L2 while the threaded-code tier is compiled from it and
// the reference loop streams it. Three narrowings
// make that possible: addresses are int32 (the image starts at
// LayoutBase and is far smaller than 2 GiB; Compile rejects overflow),
// kinds that never use a field reuse it (see the per-kind comments),
// and switch target lists live in a per-function side table instead of
// a 24-byte slice header per event. Cost fields are int32 — per-run
// aggregates are bounded by block size times per-instruction latency,
// far below 2^31.
type cinstr struct {
	// preCost/preCount carry the aggregated latency and instruction
	// count of the straight-line run preceding this event (plus the
	// event's own instruction for cCmpFn, whose cycle rides on the
	// fused branch). They are charged before the event executes,
	// preserving the exact charge order of per-instruction execution.
	preCost  int32
	preCount int32
	addr     int32 // branch/call/ret instruction address; cStep: target line base
	// cost: cResolve load latency; cBr taken threshold in 2^-24 units;
	// cStep merged segment cost.
	cost int32
	// then: cBr/cJmp taken block index; cStep line count.
	then int32
	// els: cBr fall-through block index; cCall/cICall return address
	// (addr + size); cStep merged segment instruction count.
	els int32
	// callee: cCall/cCmpFn function index; cSwitch index into the
	// function's switchTargets side table.
	callee  int32
	trip    int32 // cBr: counted-loop trip count (0 = not counted)
	tripIdx int32 // cBr: index into the frame's trip-counter array
	reg     int32
	orig    ir.SiteID
	site    ir.SiteID
	args    int16 // call argument count (InlineCost caps it far below 2^15)
	kind    ckind
	useFlag bool // cBr: branch on flag; cStep: merged segment may fault
	table   bool // cSwitch: lowered as a jump table
	// charged marks events whose segment the threaded-code tier charges
	// per event (the segment may fault mid-block, so its straight-line
	// runs cannot be batched at segment entry). Per-instruction rather
	// than per-block so superblock merging can join segments with
	// different accounting modes. The reference loop never reads it.
	charged bool
	def     ir.Defense
}

// cblock is narrowed like cinstr (48 bytes): block records are loaded
// on every block transition, so they compete with event records for L2.
// All fields fit int32 — addresses by the layout budget Compile
// enforces, costs because they are per-block aggregates.
type cblock struct {
	instrs   []cinstr
	lineBase int32
	nLines   int32

	// tailCost/tailCount carry a trailing straight-line run with no
	// following event (only possible in a malformed block that falls
	// through); charged before the fell-through trap, as
	// per-instruction execution would.
	tailCost  int32
	tailCount int32

	// Batched accounting, precomputed at compile time: the sum of every
	// pre/tail charge in the block. The threaded-code tier charges
	// blocks that cannot fault or suspend mid-block (no resolve, no
	// calls) with this sum at block entry instead of per event; the
	// charges are order-independent additions, so the batch is
	// cycle-exact, not approximate. Blocks with mayFault set are charged
	// per event so a mid-block trap never over-charges. The reference
	// loop reads none of these three fields.
	segCost  int32
	segCount int32
	mayFault bool
}

type cfunc struct {
	name     string
	index    int32
	addr     int64
	numRegs  int
	numTrips int
	blocks   []cblock
	// switchTargets holds the per-switch target block lists; cSwitch
	// events index it through their callee field. Hoisting the slices
	// out of cinstr keeps the event record within one cache line.
	switchTargets [][]int32
	// flat marks call-free functions (no direct or indirect calls in
	// any block). Such a body can never suspend — it runs to its return
	// the moment it is entered — so the threaded-code tier runs it
	// frameless (runFrameless, or inline as a leaf) instead of pushing
	// an activation record.
	flat bool
}

// probThresh converts a branch probability in [0,1] to the 24-bit
// integer threshold the dispatch loop compares a uniform draw against.
func probThresh(p float32) int32 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 24
	}
	return int32(p * (1 << 24))
}

// Program is an executable compilation of an ir.Module. The module is
// laid out (addresses assigned) as part of compilation.
type Program struct {
	mod    *ir.Module
	funcs  []cfunc
	byName map[string]int32

	// Threaded-code forms (compiled.go), each built lazily on first use
	// and shared by every Machine running this program: the charged
	// chain for machines with a cpu.Model, the model-free chain for
	// machines without one.
	compileOnce sync.Once
	compiledP   *compiled
	freeOnce    sync.Once
	freeP       *compiled

	// Site table Recorder.Profile lifts through (recorder.go), built on
	// the first lift and shared by every Recorder on this program.
	liftOnce sync.Once
	lift     []liftSite
}

// LayoutBase is where Compile places the image.
const LayoutBase = 0x1000000

// Compile lowers a module for execution. The module must verify; Compile
// re-checks the invariants it depends on and returns an error otherwise.
func Compile(mod *ir.Module) (*Program, error) {
	if end := mod.Layout(LayoutBase, 16); end > math.MaxInt32 {
		// cinstr stores addresses as int32; an image this large is far
		// outside anything the kernel generator produces.
		return nil, fmt.Errorf("interp: image end address %#x exceeds the 31-bit layout budget", end)
	}
	p := &Program{
		mod:    mod,
		funcs:  make([]cfunc, len(mod.Funcs)),
		byName: make(map[string]int32, len(mod.Funcs)),
	}
	for i, f := range mod.Funcs {
		p.byName[f.Name] = int32(i)
	}
	for i, f := range mod.Funcs {
		cf, err := p.compileFunc(f, int32(i))
		if err != nil {
			return nil, err
		}
		p.funcs[i] = cf
	}
	return p, nil
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// FuncIndex returns the dense index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	if i, ok := p.byName[name]; ok {
		return int(i)
	}
	return -1
}

// FuncName returns the name of the function at the given index.
func (p *Program) FuncName(idx int) string { return p.funcs[idx].name }

// FuncAddr returns the base address of the function at the given index.
func (p *Program) FuncAddr(idx int) int64 { return p.funcs[idx].addr }

// NumFuncs returns the number of functions in the program.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// SiteBound returns an exclusive upper bound on the site IDs used by the
// program's module, suitable for NewResolverSized.
func (p *Program) SiteBound() int { return int(p.mod.NextSiteID()) }

func (p *Program) compileFunc(f *ir.Function, index int32) (cfunc, error) {
	cf := cfunc{name: f.Name, index: index, addr: f.Addr, numRegs: f.NumRegs}
	blockIdx := make(map[string]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b.Name] = int32(i)
	}
	lookup := func(name string) (int32, error) {
		if i, ok := blockIdx[name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("interp: %s: branch to unknown block %q", f.Name, name)
	}
	addr := f.Addr
	cf.blocks = make([]cblock, len(f.Blocks))
	lineSize := int64(64)
	for bi, b := range f.Blocks {
		cb := cblock{lineBase: int32(addr &^ (lineSize - 1))}
		// Every instruction but straight-line work becomes one event.
		events := 0
		for ii := range b.Instrs {
			switch b.Instrs[ii].Op {
			case ir.OpALU, ir.OpLoad, ir.OpStore:
			default:
				events++
			}
		}
		cb.instrs = make([]cinstr, 0, events)
		var pendCost, pendCount int32
		appendEvent := func(ci cinstr) {
			ci.preCost += pendCost
			ci.preCount += pendCount
			pendCost, pendCount = 0, 0
			cb.instrs = append(cb.instrs, ci)
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			iaddr := addr
			addr += int64(in.ByteSize())
			if (in.Op.IsCall() || in.Op == ir.OpResolve) && (in.Orig < 1 || in.Orig >= p.mod.NextSiteID()) {
				// Recorder and Resolver index dense tables by Orig.
				return cf, fmt.Errorf("interp: %s: site %d has orig %d outside [1, %d)", f.Name, in.Site, in.Orig, p.mod.NextSiteID())
			}
			if !in.DefenseFits() {
				// The compiled tier indexes the model's charge rows by
				// defense directly, so an undefined value would be out of
				// range, and a defense on an edge it cannot guard would be
				// charged the worst case silently.
				return cf, fmt.Errorf("interp: %s: %s cannot carry defense %v", f.Name, in.Op, in.Defense)
			}
			switch in.Op {
			case ir.OpALU, ir.OpLoad, ir.OpStore:
				pendCost += int32(in.Latency())
				pendCount++
			case ir.OpResolve:
				appendEvent(cinstr{kind: cResolve, addr: int32(iaddr), site: in.Site, orig: in.Orig, reg: in.Reg, cost: int32(in.Latency())})
			case ir.OpCmpFn:
				tgt, ok := p.byName[in.Callee]
				if !ok {
					return cf, fmt.Errorf("interp: %s: cmpfn against unknown function %q", f.Name, in.Callee)
				}
				// The compare fuses with its branch (macro-fusion); it
				// counts as an instruction but its cycle rides on the
				// branch event.
				appendEvent(cinstr{kind: cCmpFn, addr: int32(iaddr), reg: in.Reg, callee: tgt, preCount: 1})
			case ir.OpBr:
				then, err := lookup(in.Then)
				if err != nil {
					return cf, err
				}
				els, err := lookup(in.Else)
				if err != nil {
					return cf, err
				}
				ci := cinstr{kind: cBr, addr: int32(iaddr), then: then, els: els, cost: probThresh(in.Prob), useFlag: in.UseFlag, trip: in.Trip}
				if in.Trip > 0 {
					ci.tripIdx = int32(cf.numTrips)
					cf.numTrips++
				}
				appendEvent(ci)
			case ir.OpJmp:
				then, err := lookup(in.Then)
				if err != nil {
					return cf, err
				}
				appendEvent(cinstr{kind: cJmp, then: then})
			case ir.OpSwitch:
				ts := make([]int32, len(in.Targets))
				for k, t := range in.Targets {
					ti, err := lookup(t)
					if err != nil {
						return cf, err
					}
					ts[k] = ti
				}
				tbl := int32(len(cf.switchTargets))
				cf.switchTargets = append(cf.switchTargets, ts)
				appendEvent(cinstr{kind: cSwitch, addr: int32(iaddr), callee: tbl, table: in.JumpTable, def: in.Defense})
			case ir.OpCall:
				tgt, ok := p.byName[in.Callee]
				if !ok {
					return cf, fmt.Errorf("interp: %s: call to unknown function %q", f.Name, in.Callee)
				}
				appendEvent(cinstr{kind: cCall, addr: int32(iaddr), els: int32(addr), callee: tgt, site: in.Site, orig: in.Orig, args: int16(in.Args)})
			case ir.OpICall:
				appendEvent(cinstr{kind: cICall, addr: int32(iaddr), els: int32(addr), site: in.Site, orig: in.Orig, reg: in.Reg, args: int16(in.Args), def: in.Defense})
			case ir.OpRet:
				appendEvent(cinstr{kind: cRet, addr: int32(iaddr), def: in.Defense})
			case ir.OpIJump:
				return cf, fmt.Errorf("interp: %s: raw ijump instructions are produced only by lowering and are dispatched via switch", f.Name)
			default:
				return cf, fmt.Errorf("interp: %s: unknown opcode %v", f.Name, in.Op)
			}
		}
		end := addr - 1
		cb.nLines = int32(end/lineSize-int64(cb.lineBase)/lineSize) + 1
		cb.tailCost, cb.tailCount = pendCost, pendCount
		cb.segCost, cb.segCount = cb.tailCost, cb.tailCount
		for ii := range cb.instrs {
			ci := &cb.instrs[ii]
			cb.segCost += ci.preCost
			cb.segCount += ci.preCount
			if ci.kind == cResolve || ci.kind == cCall || ci.kind == cICall {
				cb.mayFault = true
			}
		}
		if cb.mayFault {
			for ii := range cb.instrs {
				cb.instrs[ii].charged = true
			}
		}
		cf.blocks[bi] = cb
	}
	mergeSuperblocks(&cf)
	cf.flat = len(cf.blocks) > 0
	for bi := range cf.blocks {
		for ii := range cf.blocks[bi].instrs {
			if k := cf.blocks[bi].instrs[ii].kind; k == cCall || k == cICall {
				cf.flat = false
			}
		}
	}
	return cf, nil
}

// isTerminator reports whether an event ends its block's event list
// (execution never continues past it within the block).
func isTerminator(k ckind) bool {
	return k == cBr || k == cJmp || k == cSwitch || k == cRet
}

// mergeSuperblocks splices the event list of every unconditional-jump
// target into the jumping block, replacing the cJmp with a cStep event
// that performs exactly the target's block-entry accounting (step/fuel
// check, then the segment's line touches, and on the threaded-code tier
// its batched charge). Execution then runs the whole chain without
// returning to the block-transition path.
//
// The transform is observationally exact: the cStep fires at the same
// sequence point the target's block entry would (so fuel accounting,
// chaos-injection draw order and cpu.Model call order are identical),
// per-event charge flags travel with each segment's events, and blocks
// remain addressable (branches elsewhere still enter the original
// target block directly). Chains are cycle-guarded and depth-capped;
// a malformed target (no terminator) is never merged so fell-through
// trap semantics keep their per-block tail charges.
func mergeSuperblocks(cf *cfunc) {
	const maxChain = 32
	merged := make([][]cinstr, len(cf.blocks))
	// visited[b] == stamp marks block b as already on the chain being
	// expanded; each chain start takes a fresh stamp, so one slice
	// serves the whole function.
	visited := make([]int32, len(cf.blocks))
	var stamp int32
	var expand func(bi int32, budget int) []cinstr
	expand = func(bi int32, budget int) []cinstr {
		instrs := cf.blocks[bi].instrs
		t := -1
		for i := range instrs {
			if isTerminator(instrs[i].kind) {
				t = i
				break
			}
		}
		if t < 0 {
			return instrs // malformed: keep fell-through semantics
		}
		instrs = instrs[:t+1]
		term := &instrs[t]
		if term.kind != cJmp || budget == 0 {
			return instrs
		}
		tgt := term.then
		if visited[tgt] == stamp {
			return instrs
		}
		visited[tgt] = stamp
		tail := expand(tgt, budget-1)
		if len(tail) == 0 || !isTerminator(tail[len(tail)-1].kind) {
			return instrs // target chain is malformed; don't merge
		}
		tb := &cf.blocks[tgt]
		step := cinstr{
			kind:     cStep,
			preCost:  term.preCost, // the run before the jump, segment A's mode
			preCount: term.preCount,
			charged:  term.charged,
			addr:     tb.lineBase,
			then:     tb.nLines,
			cost:     tb.segCost,
			els:      tb.segCount,
			useFlag:  tb.mayFault,
		}
		out := make([]cinstr, 0, t+1+len(tail))
		out = append(out, instrs[:t]...)
		out = append(out, step)
		return append(out, tail...)
	}
	for bi := range cf.blocks {
		stamp++
		visited[bi] = stamp
		merged[bi] = expand(int32(bi), maxChain)
	}
	for bi := range cf.blocks {
		cf.blocks[bi].instrs = merged[bi]
	}
}

// ICallHook lets a runtime mechanism (the JumpSwitches baseline)
// intercept indirect calls that carry no static defense. Handle returns
// the cycles its dispatch costs; the engine adds them and charges the
// call itself as a direct call (its base and argument cost, and the
// return-address push).
type ICallHook interface {
	Handle(site ir.SiteID, target int32) (cycles int64)
}

// frame is one pooled activation record on the reference loop's
// explicit call stack. regs and trips keep their capacity across calls
// at the same depth, so only the live prefix is re-initialised per call.
type frame struct {
	fi      int32
	bi      int32
	ii      int32 // next event within the block; 0 means block entry is due
	retAddr int64
	flag    bool
	regs    []int32
	trips   []int32
}

// Machine executes a Program. CPU, Rec and Hook are all optional; a
// Machine with none of them just validates control flow. A machine
// records a profile (Rec) or charges a model (CPU), not both: RunIndex
// rejects one with both as a configuration fault.
//
// Execution failures — traps, fuel (step-budget) exhaustion, depth
// exhaustion — are reported as *resilience.FaultError values carrying
// the faulting function, so callers can distinguish an abort (after
// which partially recorded state is still usable) from a hard error.
type Machine struct {
	Prog *Program
	CPU  *cpu.Model
	Rec  *Recorder
	Res  *Resolver
	Hook ICallHook

	// Inject, when non-nil, is consulted for chaos faults: at each call,
	// injected depth exhaustion, then an injected trap; at each executed
	// block entry and superblock seam, injected fuel exhaustion. Both
	// engines draw in that order, so injection is deterministic per seed
	// whichever runs.
	Inject *resilience.Injector

	// MaxDepth bounds call nesting; MaxSteps bounds total executed
	// blocks per Run, so broken control flow fails instead of hanging.
	// Both engines keep their frames on the heap, so MaxDepth is limited
	// by memory (one pooled frame per depth), not by Go stack growth.
	MaxDepth int
	MaxSteps int64

	// RefillRSB stuffs the return stack buffer with benign entries at
	// every Run entry, modelling the kernel's RSB refilling on
	// privilege transitions (§6.4 of the paper).
	RefillRSB bool

	// OnResolve, when non-nil, observes every indirect-target resolution:
	// the original site ID (stable across ICP and inlining, which key
	// promoted chains by Orig) and the function index the resolver picked.
	// The sequence of resolutions is preserved by the optimization passes
	// — they reorder dispatch, not resolution — so differential image
	// validation (internal/diffcheck) digests it as the profile-visible
	// observable to compare a candidate image against its reference.
	OnResolve func(orig ir.SiteID, target int32)

	// Engine selects the execution tier. The zero value, EngineCompiled,
	// runs the threaded-code tier (compiled.go); EngineInterp runs the
	// per-event reference loop.
	Engine Engine

	// src is the machine's random stream: branch outcomes, switch arms
	// and resolver picks all draw from it, in the same order on both
	// engines.
	src *fastSource
	// stack is the reference loop's frame stack.
	stack []frame
	// vm is the compiled tier's per-machine state, shared by both of
	// its chains.
	vm *cvm
}

// fastSource is a splitmix64 stream. Compared with the standard
// library's lagged-Fibonacci source it has 8 bytes of state instead of
// ~5KB, seeds in O(1) instead of ~600 feedback steps (machines are
// created per measurement rep, so seeding is on the hot path), and each
// draw is three xorshift-multiply rounds with no memory traffic.
// Deterministic per seed.
type fastSource struct{ s uint64 }

func (f *fastSource) Uint64() uint64 {
	f.s += 0x9e3779b97f4a7c15
	z := f.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewMachine returns a Machine with sensible limits and a random stream
// seeded with seed.
func NewMachine(p *Program, seed int64) *Machine {
	return &Machine{
		Prog:     p,
		src:      &fastSource{s: uint64(seed)},
		MaxDepth: 256,
		MaxSteps: 32 << 20,
	}
}

// Run executes the named function to completion.
func (mc *Machine) Run(entry string) error {
	idx := mc.Prog.FuncIndex(entry)
	if idx < 0 {
		return trap(entry, "interp: no function %q", entry)
	}
	return mc.RunIndex(idx)
}

// RunIndex executes the function at the given dense index (FuncIndex)
// to completion. Callers that run the same entry repeatedly (benchmark
// loops, measurement reps) use it to hoist the name lookup.
//
// It runs the threaded-code tier unless Engine is EngineInterp. The one
// exception is a cpu.Model whose i-cache has fewer than two ways, which
// the tier's two-way probe cannot serve; that machine runs the
// reference loop.
func (mc *Machine) RunIndex(idx int) error {
	if idx < 0 || idx >= len(mc.Prog.funcs) {
		return trap("entry", "interp: no function at index %d", idx)
	}
	if mc.Rec != nil && mc.CPU != nil {
		return resilience.Faultf(resilience.PhaseExecute, resilience.KindConfig, mc.Prog.funcs[idx].name,
			"interp: a machine records a profile or charges a cpu model, not both")
	}
	// The entry is "called" from a synthetic address so its final return
	// has a matching RSB entry after warm-up.
	const entryRetAddr = 0x7fff0000
	if mc.Engine != EngineInterp {
		if mc.CPU == nil {
			return mc.runFree(int32(idx), entryRetAddr)
		}
		if err := mc.runCompiled(int32(idx), entryRetAddr); err != errEngineUnavailable {
			return err
		}
	}
	if mc.CPU != nil {
		if mc.RefillRSB {
			mc.CPU.RefillRSB()
		}
		mc.CPU.DirectCall(entryRetAddr, 0)
	}
	return mc.exec(int32(idx), entryRetAddr)
}

// trap builds an organic (non-injected) execution trap.
func trap(site, format string, args ...any) error {
	return resilience.Faultf(resilience.PhaseExecute, resilience.KindTrap, site, format, args...)
}

// callCheck is the fault check at every function entry, in the order
// both engines keep: the depth limit, an injected depth exhaustion, then
// an injected trap. depth is the callee's; the entry's is 0.
func callCheck(inject *resilience.Injector, name string, depth, maxDepth int) error {
	if depth >= maxDepth || inject.ExhaustDepth() {
		return resilience.Faultf(resilience.PhaseExecute, resilience.KindDepthExhausted, name,
			"interp: call depth exceeds %d at %s", maxDepth, name)
	}
	return inject.Trap(name)
}

// fuelCheck is the fault check at every block entry and superblock
// seam, once steps counts it: the step budget, then an injected fuel
// exhaustion.
func fuelCheck(inject *resilience.Injector, name string, steps, maxSteps int64) error {
	if steps > maxSteps || inject.ExhaustFuel() {
		return resilience.Faultf(resilience.PhaseExecute, resilience.KindFuelExhausted, name,
			"interp: step budget exhausted in %s", name)
	}
	return nil
}

// pushFrame runs the call prologue — the call check, the recorder's
// invocation count, register/trip-counter initialisation — and installs
// the frame at the given depth of the pooled stack.
func (mc *Machine) pushFrame(fi int32, depth int, retAddr int64) error {
	f := &mc.Prog.funcs[fi]
	if err := callCheck(mc.Inject, f.name, depth, mc.MaxDepth); err != nil {
		return err
	}
	if mc.Rec != nil {
		mc.Rec.invoke(fi)
	}
	if depth == len(mc.stack) {
		mc.stack = append(mc.stack, frame{})
	}
	fr := &mc.stack[depth]
	fr.fi, fr.bi, fr.ii = fi, 0, 0
	fr.retAddr = retAddr
	fr.flag = false
	// Registers hold target indices biased by +1 so that the cleared
	// value 0 means "unresolved" and initialisation is a memclr rather
	// than a sentinel-fill loop.
	if cap(fr.regs) < f.numRegs {
		fr.regs = make([]int32, f.numRegs)
	}
	fr.regs = fr.regs[:f.numRegs]
	clear(fr.regs)
	if cap(fr.trips) < f.numTrips {
		fr.trips = make([]int32, f.numTrips)
	}
	fr.trips = fr.trips[:f.numTrips]
	clear(fr.trips)
	return nil
}

// exec is the reference loop. It runs one event per iteration on the
// top frame of an explicit stack and pushes a frame for every callee.
// Each block entry and superblock seam is a step/fuel check followed by
// the segment's i-cache touches, and each event charges the
// straight-line run before it as it is reached. It never reads the
// compiled tier's batching data (segCost, segCount, mayFault, charged),
// so the equivalence tests check that tier's batched charges against
// an independent per-event account.
func (mc *Machine) exec(entry int32, retAddr int64) error {
	if err := mc.pushFrame(entry, 0, retAddr); err != nil {
		return err
	}
	model := mc.CPU
	funcs := mc.Prog.funcs
	var steps int64
	for sp := 0; sp >= 0; {
		fr := &mc.stack[sp]
		f := &funcs[fr.fi]
		b := &f.blocks[fr.bi]
		if fr.ii == 0 {
			steps++
			if err := fuelCheck(mc.Inject, f.name, steps, mc.MaxSteps); err != nil {
				return err
			}
			if model != nil {
				model.TouchLines(int64(b.lineBase), int(b.nLines))
			}
		}
		if int(fr.ii) == len(b.instrs) {
			if model != nil {
				model.AddStraightline(int64(b.tailCost), int64(b.tailCount))
			}
			return trap(f.name, "interp: %s: block %d fell through without terminator", f.name, fr.bi)
		}
		ci := &b.instrs[fr.ii]
		fr.ii++
		if model != nil {
			model.AddStraightline(int64(ci.preCost), int64(ci.preCount))
		}
		switch ci.kind {
		case cResolve:
			var d *Dist
			if mc.Res != nil {
				d = mc.Res.Get(ci.orig)
			}
			if d == nil {
				return trap(f.name, "interp: %s: no target distribution for site %d (orig %d)", f.name, ci.site, ci.orig)
			}
			tgt := d.pick(mc.src)
			fr.regs[ci.reg] = tgt + 1
			if mc.OnResolve != nil {
				mc.OnResolve(ci.orig, tgt)
			}
			if model != nil {
				model.AddStraightline(int64(ci.cost), 1)
			}
		case cCmpFn:
			fr.flag = fr.regs[ci.reg] == ci.callee+1
		case cBr:
			var taken bool
			switch {
			case ci.trip > 0:
				if cnt := fr.trips[ci.tripIdx]; cnt < ci.trip-1 {
					fr.trips[ci.tripIdx] = cnt + 1
					taken = true
				} else {
					fr.trips[ci.tripIdx] = 0
				}
			case ci.useFlag:
				taken = fr.flag
			default:
				// The top 24 bits of one draw against the precompiled
				// threshold.
				taken = uint32(mc.src.Uint64()>>40) < uint32(ci.cost)
			}
			if model != nil {
				model.CondBranch(int64(ci.addr), taken)
			}
			fr.bi, fr.ii = ci.els, 0
			if taken {
				fr.bi = ci.then
			}
		case cJmp:
			fr.bi, fr.ii = ci.then, 0
		case cSwitch:
			targets := f.switchTargets[ci.callee]
			k := int(uint64n(mc.src, uint64(len(targets))))
			if model != nil {
				if ci.table {
					model.IndirectJump(int64(ci.addr), int64(k), ci.def)
				} else {
					// Compare chain: one predicted compare+branch per
					// skipped case.
					for j := 0; j <= k && j < len(targets)-1; j++ {
						model.CondBranch(int64(ci.addr)+int64(j), j == k)
					}
				}
			}
			fr.bi, fr.ii = targets[k], 0
		case cCall:
			if mc.Rec != nil {
				mc.Rec.direct(ci.orig)
			}
			if model != nil {
				model.DirectCall(int64(ci.els), int32(ci.args))
			}
			if err := mc.pushFrame(ci.callee, sp+1, int64(ci.els)); err != nil {
				return err
			}
			sp++
		case cICall:
			tgt := fr.regs[ci.reg] - 1
			if tgt < 0 {
				return trap(f.name, "interp: %s: icall through unresolved register r%d (site %d)", f.name, ci.reg, ci.site)
			}
			if mc.Rec != nil {
				mc.Rec.indirect(ci.orig, tgt)
			}
			if model != nil {
				if mc.Hook != nil && ci.def == ir.DefNone {
					model.Cycles += mc.Hook.Handle(ci.orig, tgt)
					model.DirectCall(int64(ci.els), int32(ci.args))
				} else {
					model.IndirectCall(int64(ci.addr), funcs[tgt].addr, int64(ci.els), int32(ci.args), ci.def)
				}
			}
			if err := mc.pushFrame(tgt, sp+1, int64(ci.els)); err != nil {
				return err
			}
			sp++
		case cRet:
			if model != nil {
				model.Return(fr.retAddr, ci.def)
			}
			sp--
		case cStep:
			// Superblock seam: the merged jump target's block entry.
			steps++
			if err := fuelCheck(mc.Inject, f.name, steps, mc.MaxSteps); err != nil {
				return err
			}
			if model != nil {
				model.TouchLines(int64(ci.addr), int(ci.then))
			}
		}
	}
	return nil
}
