// Threaded-code compilation tier.
//
// The packed-event interpreter (interp.go) still pays a switch dispatch,
// a bounds-checked event fetch and several cpu.Model method calls per
// control-flow event. This file adds a second execution tier that
// removes all three: each cblock is pre-compiled into a chain of Go
// closures (classic threaded code — the standard pure-Go answer to
// having no runtime codegen), so steady-state execution runs
// closure-to-closure through a two-instruction driver loop
// (`for op != nil { op = op(vm) }`) with every compile-time constant —
// addresses, costs, branch thresholds, defense kinds, callee identities
// — captured in the closure instead of fetched and decoded per event.
//
// Cycle accounting is folded into the chain: the VM borrows the
// cpu.Model's predictor and cache state (cpu.EngineState) for the
// duration of a run and applies the model's own update rules inline,
// with Cycles/Stats accumulating in VM-local fields written back at
// exit. Because every charge is a pure sum and the order-sensitive
// state (BTB/PHT slots, RSB cursor, the i-cache sets' recency order) is
// updated through the same arrays with the same rules in the same
// sequence, the compiled tier is cycle-exact against the interpreter —
// a property the equivalence tests, FuzzCompiledEquivalence and the
// diffcheck engine-vs-engine gate all enforce.
//
// Superinstruction fusion: the profile work in PR 4/5 identified the
// hot event shapes on the syscall path — straight-line segments ending
// in a return ("step,ret" leaf helpers), direct calls into those
// helpers, resolve feeding an indirect call, and block-entry accounting
// feeding a terminator. Each is fused here:
//
//   - call->leaf and icall->leaf: a call whose callee is a call-free
//     straight-line body executes the whole callee (segment charges,
//     icache touches, the return) inside the caller's closure, from a
//     data-driven leaf descriptor — no frame push, no dispatch.
//   - resolve+icall: one closure draws the target and dispatches it,
//     skipping the register round-trip decode.
//   - block-entry accounting (step/fuel check plus batched segment
//     charge or per-event icache touch) is a compile-time prefix baked
//     into the first event's closure, as is every superblock seam
//     (cStep) for the event that follows it.
//
// Machines without a cpu.Model run a second, model-free chain built by
// the same compileProgram skeleton: the same block split, leaf
// descriptors, frame protocol and fault helpers, with per-event
// closures that keep only what such a run can observe — the step/fuel
// sequence points at block entries and seams, control flow, RNG draws,
// resolver picks, OnResolve, traps and the Recorder's counts. The
// counts land at the interpreter's sequence points: a direct or
// indirect edge before the callee's depth check, the callee's
// invocation after it (the entry's too), so every profile, partial
// ones after a fuel, depth or unresolved-site trap included, is
// byte-identical to the interpreter's. Profile collection runs on it.
//
// The tier is opt-in (Machine.Engine) and conservative: machines with an
// ICallHook, Injector, replaced RNG or ExactAccounting, and machines
// carrying a Recorder beside a cpu.Model, fall back to the interpreter
// silently — those paths observe per-event execution the closure
// chains do not expose. OnResolve is supported (diffcheck depends on
// it).
package interp

import (
	"errors"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/resilience"
)

// Engine selects the execution tier a Machine uses.
type Engine uint8

const (
	// EngineInterp is the packed-event interpreter — the reference tier.
	EngineInterp Engine = iota
	// EngineCompiled is the threaded-code tier. Machines that carry
	// state the compiled chains cannot observe (hook, injector, replaced
	// RNG, ExactAccounting, or a recorder beside a cpu.Model) fall back
	// to the interpreter.
	EngineCompiled
)

// ParseEngine parses an engine name as used by the -engine CLI flag.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "interp":
		return EngineInterp, nil
	case "compiled":
		return EngineCompiled, nil
	}
	return EngineInterp, errors.New("interp: unknown engine " + s + " (want interp or compiled)")
}

func (e Engine) String() string {
	if e == EngineCompiled {
		return "compiled"
	}
	return "interp"
}

// errEngineUnavailable reports that the model's geometry has no inlined
// form (an i-cache with fewer than two ways, which the two-way probe
// needs); the caller falls back to the interpreter for this run.
var errEngineUnavailable = errors.New("interp: compiled engine unavailable for this cpu model")

// cop is one compiled operation: execute, return the next operation.
// nil ends the run (vm.err distinguishes completion from fault).
type cop func(vm *cvm) cop

// compiled is the threaded-code form of a Program, built once per
// Program on first use and shared by every Machine running it (closures
// capture only compile-time constants; all mutable state lives in the
// per-machine cvm).
type compiled struct {
	funcs []cfn
	addrs []int64 // function base addresses, indexed like funcs
}

// cfn is one compiled function.
type cfn struct {
	name     string
	index    int32
	numRegs  int
	numTrips int
	// entries holds the entry closure of each block; branch closures
	// capture pointers into it so cyclic control flow resolves lazily.
	entries []cop
	entry0  cop
	// leaf describes a call-free straight-line body ending in a return;
	// call sites execute it inline instead of entering the function.
	leaf *leafBody
	// flatEntries/flatEntry0 are a second compilation of call-free
	// functions whose return ends a nested driver loop instead of
	// popping a frame; call sites run them on scratch registers with no
	// frame push at all (the compiled analogue of the interpreter's
	// frameless runFlat path). nil for functions that make calls.
	flatEntries []cop
	flatEntry0  cop
}

// leafSeg is one straight-line segment of a leaf body: a block entry or
// superblock seam — one step/fuel sequence point plus its batched
// charge and icache touch.
type leafSeg struct {
	cost, count int64
	lineBase    int64
	nLines      int
}

// leafBody is the data-driven description of a leaf function, executed
// inline at fused call sites.
type leafBody struct {
	name   string
	segs   []leafSeg
	retDef ir.Defense
}

// cframe is a suspended caller on the compiled VM's frame stack.
type cframe struct {
	regs    []int32
	trips   []int32
	flag    bool
	retAddr int64
	cont    cop
}

// regFile is the pooled register/trip storage for one call depth —
// one buffer so a frame install is a single capacity check and clear.
type regFile struct {
	buf []int32
}

// cvm is the per-machine state of the compiled tier. The hot fields are
// plain scalars and slice headers so closures touch one pointer (vm)
// plus fixed offsets; cpu parameters are hoisted out of the model at
// run entry so no closure reads through Model.P.
type cvm struct {
	// borrowed model state (slices alias the model's arrays)
	st cpu.EngineState

	// hoisted model parameters
	mispredict       int64
	icMissPenalty    int64
	directCallCost   int64
	callArgCost      int64
	returnCost       int64
	indirectCallCost int64
	condBranchCost   int64
	rsbRefillCost    int64
	alignMask        int64 // ^(ICacheLine-1)
	icLine           int64

	// execution state
	steps     int64
	maxSteps  int64
	maxDepth  int
	depth     int
	src       *fastSource
	res       *Resolver
	onResolve func(orig ir.SiteID, target int32)
	cp        *compiled
	err       error

	// current frame
	regs    []int32
	trips   []int32
	flag    bool
	retAddr int64

	stack []cframe
	pool  []regFile

	// scratch register file for the frameless flat-call path. Flat
	// functions are call-free, so at most one is live at a time.
	flatRegs  []int32
	flatTrips []int32

	// model is the Model the view and hoisted parameters were taken
	// from; runs against the same model re-borrow with EngineSync.
	model *cpu.Model

	// Pointer-hoisted icache tags. The touch probe is the hottest
	// operation in the engine, and going through the borrowed slice
	// header costs bounds checks plus reloads the compiler cannot elide.
	// The raw-pointer form is sound because every index is provably in
	// bounds: set <= icSetMask = sets-1, so a set's ways occupy
	// [set*ways, set*ways+ways) within len(ICTags) = sets*ways, and the
	// probe reads ways 0 and 1 while touchSlow reads ways 2..ways-1 and
	// writes 0..ways-1. runCompiled checks the geometry (ways >= 2,
	// len(ICTags) == sets*ways) once before installing these.
	icTagsP   unsafe.Pointer // &ICTags[0] ([]int64)
	icSetMask uint64         // sets-1 == cpu icMask
	icShiftN  uint64
	icWaysN   uintptr

	// rsbP is &RSB[0], same treatment: the cursor invariant
	// RSBTop in [0, RSBDepth) with len(RSB) == RSBDepth (gated in
	// runCompiled) keeps every access in bounds.
	rsbP unsafe.Pointer

	// rec is the machine's recorder; only the model-free chain counts
	// into it (compiledEligible keeps it nil beside a model).
	rec *Recorder
}

// --- inlined cpu.Model operations ----------------------------------
//
// Each mirrors the corresponding Model method exactly (cpu.go is the
// source of truth); TestEngineStateMatchesModel in cpu and the
// equivalence tests here pin the behaviour.

func (vm *cvm) pushRSB(ret int64) {
	top := vm.st.RSBTop + 1
	if top == vm.st.RSBDepth {
		top = 0
	}
	*(*int64)(unsafe.Add(vm.rsbP, uintptr(top)*8)) = ret
	vm.st.RSBTop = top
	if vm.st.RSBLen < vm.st.RSBDepth {
		vm.st.RSBLen++
	}
}

func (vm *cvm) popRSB() (int64, bool) {
	if vm.st.RSBLen == 0 {
		return 0, false
	}
	top := vm.st.RSBTop
	v := *(*int64)(unsafe.Add(vm.rsbP, uintptr(top)*8))
	top--
	if top < 0 {
		top = vm.st.RSBDepth - 1
	}
	vm.st.RSBTop = top
	vm.st.RSBLen--
	return v, true
}

func (vm *cvm) refillRSB() {
	const benign = 0x7fffff00
	for i := 0; i < vm.st.RSBDepth; i++ {
		vm.pushRSB(benign)
	}
	vm.st.RSBLen = vm.st.RSBDepth
	vm.st.Cycles += vm.rsbRefillCost
}

// touchProbe is the dominant icache path: it reads the line's set's two
// newest ways and resolves a hit on either. Both orders after such a
// hit are "line, then the other of the two", so a hit stores the pair
// without branching on which way matched; a hit in way 0 rewrites the
// set unchanged. It is small enough to inline into every closure that
// touches a line; a line in neither way falls to touchSlow. line must
// already be line-aligned. It uses the pointer-hoisted tags (see the cvm
// field comment for the in-bounds argument).
func (vm *cvm) touchProbe(line int64) bool {
	// icShiftN < 63; the mask lets the compiler emit a bare shift.
	set := uintptr(uint64(line>>(vm.icShiftN&63)) & vm.icSetMask)
	ways := unsafe.Add(vm.icTagsP, set*vm.icWaysN*8)
	t0, t1 := *(*int64)(ways), *(*int64)(unsafe.Add(ways, 8))
	if t0 != line && t1 != line {
		return false
	}
	vm.st.Stats.ICacheHits++
	*(*int64)(ways) = line
	*(*int64)(unsafe.Add(ways, 8)) = t0 ^ t1 ^ line // the way that did not match
	return true
}

// touchSlow finishes a touch that missed both of touchProbe's ways:
// Model.touchLine's scan from way 2, then the line moves to the front
// of its set, shifting the ways before it (on a miss, all but the last)
// down one.
func (vm *cvm) touchSlow(line int64) {
	set := uintptr(uint64(line>>vm.icShiftN) & vm.icSetMask)
	n := vm.icWaysN
	ways := unsafe.Add(vm.icTagsP, set*n*8)
	w := uintptr(2)
	for w < n && *(*int64)(unsafe.Add(ways, w*8)) != line {
		w++
	}
	if w < n {
		vm.st.Stats.ICacheHits++
	} else {
		vm.st.Stats.ICacheMisses++
		vm.st.Cycles += vm.icMissPenalty
		w--
	}
	for ; w > 0; w-- {
		*(*int64)(unsafe.Add(ways, w*8)) = *(*int64)(unsafe.Add(ways, (w-1)*8))
	}
	*(*int64)(ways) = line
}

// touchN touches n consecutive lines starting at base (re-aligned, as
// Model.TouchLines does — the model's line size may differ from the
// 64-byte layout granularity blocks were compiled with).
func (vm *cvm) touchN(base int64, n int) {
	line := base & vm.alignMask
	for i := 0; i < n; i++ {
		if !vm.touchProbe(line) {
			vm.touchSlow(line)
		}
		line += vm.icLine
	}
}

// condBranch mirrors Model.CondBranch; used by the (rare) switch
// compare-chain. Hot branch closures inline the same logic directly.
func (vm *cvm) condBranch(addr int64, taken bool) {
	slot := addr & vm.st.PHTMask
	ctr := vm.st.PHT[slot]
	if (ctr >= 2) == taken {
		vm.st.Stats.PHTHits++
		vm.st.Cycles += vm.condBranchCost
	} else {
		vm.st.Stats.PHTMisses++
		vm.st.Cycles += vm.condBranchCost + vm.mispredict
	}
	if taken {
		if ctr < 3 {
			vm.st.PHT[slot] = ctr + 1
		}
	} else if ctr > 0 {
		vm.st.PHT[slot] = ctr - 1
	}
}

// icallDef charges a defended indirect call from the model's charge rows
// (call closures inline DefNone). The argument cost and RSB push stay at
// the call site. Compile rejects undefined defenses, so def indexes a
// defined row.
func (vm *cvm) icallDef(siteAddr, targetAddr int64, def ir.Defense) {
	c := &vm.st.Charges.Call[def]
	if c.Thunk {
		vm.st.Stats.ThunkedCalls++
	}
	if c.Predicted {
		vm.dispatch(siteAddr, targetAddr, c.Cost)
	} else {
		vm.st.Cycles += c.Cost
	}
}

// dispatch mirrors Model.dispatch: a BTB-predicted indirect branch.
func (vm *cvm) dispatch(siteAddr, targetAddr, cost int64) {
	slot := siteAddr & vm.st.BTBMask
	if vm.st.BTB[slot] == targetAddr {
		vm.st.Stats.BTBHits++
		vm.st.Cycles += cost
	} else {
		vm.st.Stats.BTBMisses++
		vm.st.Cycles += cost + vm.mispredict
		vm.st.BTB[slot] = targetAddr
	}
}

// retSlow charges a defended return; Returns++ and the RSB pop already
// happened at the site (the pop precedes the charge in Model.Return).
func (vm *cvm) retSlow(predicted int64, ok bool, retAddr int64, def ir.Defense) {
	c := &vm.st.Charges.Ret[def]
	if c.Thunk {
		vm.st.Stats.ThunkedRets++
	}
	switch {
	case !c.Predicted:
		vm.st.Cycles += c.Cost
	case ok && predicted == retAddr:
		vm.st.Stats.RSBHits++
		vm.st.Cycles += c.Cost
	default:
		vm.st.Stats.RSBMisses++
		vm.st.Cycles += c.Cost + vm.mispredict
	}
}

// ijump mirrors Model.IndirectJump (jump-table switches are rare enough
// that it stays a method call).
func (vm *cvm) ijump(siteAddr, targetAddr int64, def ir.Defense) {
	c := &vm.st.Charges.Jump[def]
	if c.Predicted {
		vm.dispatch(siteAddr, targetAddr, c.Cost)
	} else {
		vm.st.Cycles += c.Cost
	}
}

// --- faults ---------------------------------------------------------

func (vm *cvm) fuelFault(name string) cop {
	vm.err = resilience.Faultf(resilience.PhaseExecute, resilience.KindFuelExhausted, name,
		"interp: step budget exhausted in %s", name)
	return nil
}

func (vm *cvm) depthFault(name string) cop {
	vm.err = resilience.Faultf(resilience.PhaseExecute, resilience.KindDepthExhausted, name,
		"interp: call depth exceeds %d at %s", vm.maxDepth, name)
	return nil
}

// --- frame protocol -------------------------------------------------

// enter suspends the current frame and installs a fresh one for cf,
// mirroring pushFrame (depth check, cleared registers/trips). cont is
// the closure to resume the caller at after cf returns.
func (vm *cvm) enter(cf *cfn, retAddr int64, cont cop) cop {
	d := vm.depth + 1
	if d >= vm.maxDepth {
		return vm.depthFault(cf.name)
	}
	if vm.depth >= len(vm.stack) {
		vm.stack = append(vm.stack, make([]cframe, vm.depth+1-len(vm.stack))...)
	}
	fr := &vm.stack[vm.depth]
	fr.regs, fr.trips, fr.flag, fr.retAddr, fr.cont = vm.regs, vm.trips, vm.flag, vm.retAddr, cont
	vm.installFrame(cf, d, retAddr)
	return cf.entry0
}

// installFrame points the VM's live register state at the pooled file
// for depth d, cleared for cf.
func (vm *cvm) installFrame(cf *cfn, d int, retAddr int64) {
	for d >= len(vm.pool) {
		vm.pool = append(vm.pool, regFile{})
	}
	p := &vm.pool[d]
	need := cf.numRegs + cf.numTrips
	if cap(p.buf) < need {
		p.buf = make([]int32, need+16)
	}
	buf := p.buf[:need]
	clear(buf)
	vm.regs, vm.trips = buf[:cf.numRegs], buf[cf.numRegs:]
	vm.flag = false
	vm.retAddr = retAddr
	vm.depth = d
}

// runLeaf executes a leaf body inline at a call site: the exact
// observable sequence of runFlat for this shape — depth check, one
// step/fuel sequence point plus batched charge and icache touch per
// segment, then the return — with no frame and no dispatch. The caller
// has already charged the call itself. next resumes the caller.
func (vm *cvm) runLeaf(lb *leafBody, retAddr int64, next cop) cop {
	if vm.depth+1 >= vm.maxDepth {
		return vm.depthFault(lb.name)
	}
	if n := int64(len(lb.segs)); vm.steps+n <= vm.maxSteps {
		// Whole body fits in the fuel budget: one steps update, no
		// per-segment checks. End state is identical to the careful
		// path (charges are pure sums, touches stay in order).
		vm.steps += n
		for i := range lb.segs {
			s := &lb.segs[i]
			vm.st.Cycles += s.cost
			vm.st.Stats.Instructions += s.count
			if s.nLines == 1 {
				line := s.lineBase & vm.alignMask
				if !vm.touchProbe(line) {
					vm.touchSlow(line)
				}
			} else {
				vm.touchN(s.lineBase, s.nLines)
			}
		}
	} else {
		for i := range lb.segs {
			s := &lb.segs[i]
			vm.steps++
			if vm.steps > vm.maxSteps {
				return vm.fuelFault(lb.name)
			}
			vm.st.Cycles += s.cost
			vm.st.Stats.Instructions += s.count
			if s.nLines == 1 {
				line := s.lineBase & vm.alignMask
				if !vm.touchProbe(line) {
					vm.touchSlow(line)
				}
			} else {
				vm.touchN(s.lineBase, s.nLines)
			}
		}
	}
	vm.st.Stats.Returns++
	predicted, ok := vm.popRSB()
	if lb.retDef == ir.DefNone {
		if ok && predicted == retAddr {
			vm.st.Stats.RSBHits++
			vm.st.Cycles += vm.returnCost
		} else {
			vm.st.Stats.RSBMisses++
			vm.st.Cycles += vm.returnCost + vm.mispredict
		}
	} else {
		vm.retSlow(predicted, ok, retAddr, lb.retDef)
	}
	return next
}

// runFlatInline executes a call-free function at a call site with no
// frame push: the current frame's register pointers are parked in
// locals, the callee runs on the VM's scratch file through a nested
// driver loop over its flat-compiled chain (whose return closure ends
// the loop instead of popping a frame), and the caller's pointers are
// put back. Mirrors the interpreter's runFlat, including the depth
// check. next resumes the caller; nil propagates a fault.
func (vm *cvm) runFlatInline(cf *cfn, retAddr int64, next cop) cop {
	if vm.depth+1 >= vm.maxDepth {
		return vm.depthFault(cf.name)
	}
	sRegs, sTrips, sFlag, sRet := vm.regs, vm.trips, vm.flag, vm.retAddr
	if cap(vm.flatRegs) < cf.numRegs {
		vm.flatRegs = make([]int32, cf.numRegs+16)
	}
	regs := vm.flatRegs[:cf.numRegs]
	clear(regs)
	if cap(vm.flatTrips) < cf.numTrips {
		vm.flatTrips = make([]int32, cf.numTrips+16)
	}
	trips := vm.flatTrips[:cf.numTrips]
	clear(trips)
	vm.regs, vm.trips, vm.flag, vm.retAddr = regs, trips, false, retAddr
	for op := cf.flatEntry0; op != nil; op = op(vm) {
	}
	vm.regs, vm.trips, vm.flag, vm.retAddr = sRegs, sTrips, sFlag, sRet
	if vm.err != nil {
		return nil
	}
	return next
}

// --- model-free frame protocol -------------------------------------

// tick is one step/fuel sequence point of the model-free chain; it
// reports whether the budget is exhausted.
func (vm *cvm) tick() bool {
	vm.steps++
	return vm.steps > vm.maxSteps
}

// call enters cf on the model-free chain once the caller has counted
// its edge: the callee's depth check, then its invocation count (the
// order of pushFrame and runFlat), then its body — a leaf's segments
// as one fuel charge, a call-free body on the nested driver, anything
// else in a fresh frame. No return address is kept without a model.
func (vm *cvm) call(cf *cfn, next cop) cop {
	if lb := cf.leaf; lb != nil {
		return vm.callLeaf(cf, int64(len(lb.segs)), next)
	}
	if vm.depth+1 >= vm.maxDepth {
		return vm.depthFault(cf.name)
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	if cf.flatEntry0 != nil {
		return vm.runFlatInline(cf, 0, next)
	}
	return vm.enter(cf, 0, next)
}

// callLeaf is vm.call for a leaf callee of n segments: with depth and
// fuel to spare, the invocation count and one fuel charge for the whole
// body.
func (vm *cvm) callLeaf(cf *cfn, n int64, next cop) cop {
	if vm.depth+1 >= vm.maxDepth || vm.steps+n > vm.maxSteps {
		return vm.leafFault(cf)
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	vm.steps += n
	return next
}

// leafFault is callLeaf's slow path, in the interpreter's order: the
// depth check, the invocation count, then the fuel budget running out
// inside the body. Nothing observable happens between a leaf's segments
// here, so the fault lands at maxSteps+1, as a segment-by-segment count
// would.
func (vm *cvm) leafFault(cf *cfn) cop {
	if vm.depth+1 >= vm.maxDepth {
		return vm.depthFault(cf.name)
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	vm.steps = vm.maxSteps + 1
	return vm.fuelFault(cf.name)
}

// leave is the model-free return: the frame pop the charged return
// closures inline after their RSB charge. The depth-0 return ends the
// run.
func (vm *cvm) leave() cop {
	d := vm.depth
	if d == 0 {
		return nil
	}
	d--
	fr := &vm.stack[d]
	vm.regs, vm.trips, vm.flag, vm.retAddr = fr.regs, fr.trips, fr.flag, fr.retAddr
	vm.depth = d
	return fr.cont
}

// --- compilation ----------------------------------------------------

// compiledProgram builds (once) and returns the charged threaded-code
// form, the one machines with a cpu.Model run.
func (p *Program) compiledProgram() *compiled {
	p.compileOnce.Do(func() {
		p.compiledP = compileProgram(p, false)
	})
	return p.compiledP
}

// freeProgram builds (once) and returns the model-free threaded-code
// form, the one machines without a cpu.Model run.
func (p *Program) freeProgram() *compiled {
	p.freeOnce.Do(func() {
		p.freeP = compileProgram(p, true)
	})
	return p.freeP
}

// compileProgram builds one threaded-code form of p: the charged chain,
// or with free set the model-free one. Only the per-event closures
// differ (genEvent and genResolveICall against genFree).
func compileProgram(p *Program, free bool) *compiled {
	cp := &compiled{
		funcs: make([]cfn, len(p.funcs)),
		addrs: make([]int64, len(p.funcs)),
	}
	for i := range p.funcs {
		src := &p.funcs[i]
		cp.addrs[i] = src.addr
		f := cfn{
			name:     src.name,
			index:    int32(i),
			numRegs:  src.numRegs,
			numTrips: src.numTrips,
			entries:  make([]cop, len(src.blocks)),
			leaf:     leafOf(src),
		}
		if src.flat && f.leaf == nil && len(src.blocks) > 0 {
			f.flatEntries = make([]cop, len(src.blocks))
		}
		cp.funcs[i] = f
	}
	for i := range p.funcs {
		compileFn(cp, p, int32(i), free)
	}
	for i := range cp.funcs {
		f := &cp.funcs[i]
		if len(f.entries) > 0 {
			f.entry0 = f.entries[0]
		} else {
			name := f.name
			f.entry0 = func(vm *cvm) cop {
				vm.err = trap(name, "interp: %s: block 0 fell through without terminator", name)
				return nil
			}
		}
		if f.flatEntries != nil {
			f.flatEntry0 = f.flatEntries[0]
		}
	}
	return cp
}

// leafOf recognises functions whose merged entry chain is pure
// straight-line code ending in a return — the "step,ret" shape the
// profiler identifies as the hottest callee — and builds the inline
// descriptor. Flatness guarantees no segment may fault, so every
// segment charge is batched, exactly as the interpreter batches them.
func leafOf(f *cfunc) *leafBody {
	if !f.flat || len(f.blocks) == 0 {
		return nil
	}
	b := &f.blocks[0]
	n := len(b.instrs)
	if n == 0 || b.instrs[n-1].kind != cRet {
		return nil
	}
	ret := &b.instrs[n-1]
	if ret.charged && ret.preCount != 0 {
		return nil // per-event segment; keep the generic path
	}
	for i := 0; i < n-1; i++ {
		ci := &b.instrs[i]
		if ci.kind != cStep || ci.useFlag || (ci.charged && ci.preCount != 0) {
			return nil
		}
	}
	if b.mayFault {
		return nil
	}
	segs := make([]leafSeg, 0, n)
	segs = append(segs, leafSeg{int64(b.segCost), int64(b.segCount), int64(b.lineBase), int(b.nLines)})
	for i := 0; i < n-1; i++ {
		ci := &b.instrs[i]
		segs = append(segs, leafSeg{int64(ci.cost), int64(ci.els), int64(ci.addr), int(ci.then)})
	}
	return &leafBody{name: f.name, segs: segs, retDef: ret.def}
}

// segPre describes the accounting prefix baked before an event's
// closure: a block entry or superblock seam — an optional charged run
// from the preceding segment, one step/fuel sequence point, then either
// the segment's batched charge+touch or (for may-fault segments whose
// runs are charged per event) an icache touch alone.
type segPre struct {
	name     string
	preCost  int64 // charged run before a merged jump (cStep only)
	preCount int64
	batched  bool // segment cannot fault: charge cost/count at entry
	cost     int64
	count    int64
	lineBase int64
	nLines   int
}

// fuse bakes a prefix in front of a body closure. The prefix and body
// execute under one driver dispatch — the block-entry+terminator
// superinstruction for single-event blocks.
//
// fuse stays out of line so that its closures are compiled with it and
// not with its callers: genEvent and compileBlock are large enough that
// the compiler lowers the inlining budget of every closure built in
// them, and touchProbe then becomes a call in the hottest closures.
//
//go:noinline
func fuse(pre *segPre, body cop) cop {
	if pre == nil {
		return body
	}
	p := *pre
	if p.batched && p.nLines == 1 && p.preCount == 0 {
		// The dominant prefix: single-line, cannot-fault segment.
		name, cost, count, lb := p.name, p.cost, p.count, p.lineBase
		return func(vm *cvm) cop {
			vm.steps++
			if vm.steps > vm.maxSteps {
				return vm.fuelFault(name)
			}
			vm.st.Cycles += cost
			vm.st.Stats.Instructions += count
			line := lb & vm.alignMask
			if !vm.touchProbe(line) {
				vm.touchSlow(line)
			}
			return body(vm)
		}
	}
	return func(vm *cvm) cop {
		if p.preCount != 0 {
			vm.st.Cycles += p.preCost
			vm.st.Stats.Instructions += p.preCount
		}
		vm.steps++
		if vm.steps > vm.maxSteps {
			return vm.fuelFault(p.name)
		}
		if p.batched {
			vm.st.Cycles += p.cost
			vm.st.Stats.Instructions += p.count
		}
		if p.nLines == 1 {
			line := p.lineBase & vm.alignMask
			if !vm.touchProbe(line) {
				vm.touchSlow(line)
			}
		} else {
			vm.touchN(p.lineBase, p.nLines)
		}
		return body(vm)
	}
}

func compileFn(cp *compiled, p *Program, fi int32, free bool) {
	src := &p.funcs[fi]
	f := &cp.funcs[fi]
	for bi := range src.blocks {
		f.entries[bi] = compileBlock(cp, src, f, bi, f.entries, false, free)
	}
	// Flat functions get a second chain whose return ends a nested
	// driver loop; branch closures target the flat entries so control
	// never escapes into the framed chain mid-run.
	if f.flatEntries != nil {
		for bi := range src.blocks {
			f.flatEntries[bi] = compileBlock(cp, src, f, bi, f.flatEntries, true, free)
		}
	}
}

func compileBlock(cp *compiled, src *cfunc, f *cfn, bi int, entries []cop, flatRet, free bool) cop {
	b := &src.blocks[bi]
	name := src.name

	// Pass 1: split the merged event list into (prefix, event) pairs.
	// cStep events become the prefix of the event that follows them;
	// the block's own entry accounting is the prefix of the first.
	type item struct {
		pre *segPre
		ci  *cinstr
	}
	entryPre := &segPre{
		name:     name,
		batched:  !b.mayFault,
		cost:     int64(b.segCost),
		count:    int64(b.segCount),
		lineBase: int64(b.lineBase),
		nLines:   int(b.nLines),
	}
	var items []item
	pending := entryPre
	for ii := range b.instrs {
		ci := &b.instrs[ii]
		if ci.kind == cStep {
			sp := &segPre{
				name:     name,
				batched:  !ci.useFlag,
				cost:     int64(ci.cost),
				count:    int64(ci.els),
				lineBase: int64(ci.addr),
				nLines:   int(ci.then),
			}
			if ci.charged {
				sp.preCost = int64(ci.preCost)
				sp.preCount = int64(ci.preCount)
			}
			if pending != nil {
				// Two seams back-to-back cannot happen (a cStep is always
				// followed by the target's events before the next seam),
				// but keep the earlier prefix as a standalone op if it does.
				items = append(items, item{pre: pending})
			}
			pending = sp
			continue
		}
		items = append(items, item{pre: pending, ci: ci})
		pending = nil
	}
	if pending != nil {
		items = append(items, item{pre: pending})
	}

	// Fall-off closure: reached only when the block has no terminator.
	tailBI := bi
	chargeTail := !free && b.mayFault && b.tailCount != 0
	tc, tn := int64(b.tailCost), int64(b.tailCount)
	next := cop(func(vm *cvm) cop {
		if chargeTail {
			vm.st.Cycles += tc
			vm.st.Stats.Instructions += tn
		}
		vm.err = trap(name, "interp: %s: block %d fell through without terminator", name, tailBI)
		return nil
	})

	// Pass 2: build closures back-to-front so each captures its
	// successor directly. On the charged chain resolve+icall pairs fuse
	// into one closure; the model-free chain gained nothing measurable
	// from that fusion.
	for k := len(items) - 1; k >= 0; k-- {
		it := items[k]
		if free {
			next = genFree(cp, src, it.pre, it.ci, name, next, entries, flatRet)
			continue
		}
		if it.ci == nil {
			next = fuse(it.pre, next)
			continue
		}
		if it.ci.kind == cICall && k > 0 && items[k-1].ci != nil &&
			items[k-1].ci.kind == cResolve && it.pre == nil && items[k-1].ci.reg == it.ci.reg {
			// Fused into the preceding resolve (compiled next iteration);
			// `next` stays pointing at the chain after this icall, which
			// is exactly the fused pair's continuation.
			continue
		}
		if it.ci.kind == cResolve && k+1 < len(items) &&
			items[k+1].ci != nil && items[k+1].ci.kind == cICall &&
			items[k+1].pre == nil && items[k+1].ci.reg == it.ci.reg {
			next = genResolveICall(cp, f, it.pre, it.ci, items[k+1].ci, name, next)
			continue
		}
		next = genEvent(cp, src, f, it.pre, it.ci, name, next, entries, flatRet)
	}
	return next
}

// genResolveICall emits the fused resolve+icall superinstruction.
func genResolveICall(cp *compiled, f *cfn, pre *segPre, res *cinstr, ic *cinstr, name string, next cop) cop {
	// resolve constants
	orig, site, reg := res.orig, res.site, int(res.reg)
	resCost := int64(res.cost)
	resPreCost, resPreCount := chargeOf(res)
	// icall constants (the run between resolve and icall, if any)
	icPreCost, icPreCount := chargeOf(ic)
	icAddr := int64(ic.addr)
	icRet := int64(ic.els)
	icArgs := int64(ic.args)
	icSite := ic.site
	icDef := ic.def
	defNone := icDef == ir.DefNone
	return fuse(pre, func(vm *cvm) cop {
		if resPreCount != 0 {
			vm.st.Cycles += resPreCost
			vm.st.Stats.Instructions += resPreCount
		}
		var d *Dist
		if vm.res != nil {
			d = vm.res.Get(orig)
		}
		if d == nil {
			vm.err = trap(name, "interp: %s: no target distribution for site %d (orig %d)", name, site, orig)
			return nil
		}
		tgt := d.pickFast(vm.src)
		vm.regs[reg] = tgt + 1
		if vm.onResolve != nil {
			vm.onResolve(orig, tgt)
		}
		vm.st.Cycles += resCost
		vm.st.Stats.Instructions++
		if icPreCount != 0 {
			vm.st.Cycles += icPreCost
			vm.st.Stats.Instructions += icPreCount
		}
		if tgt < 0 {
			vm.err = trap(name, "interp: %s: icall through unresolved register r%d (site %d)", name, reg, icSite)
			return nil
		}
		vm.st.Stats.IndirectCalls++
		vm.st.Cycles += icArgs * vm.callArgCost
		ta := cp.addrs[tgt]
		if defNone {
			slot := icAddr & vm.st.BTBMask
			if vm.st.BTB[slot] == ta {
				vm.st.Stats.BTBHits++
				vm.st.Cycles += vm.indirectCallCost
			} else {
				vm.st.Stats.BTBMisses++
				vm.st.Cycles += vm.indirectCallCost + vm.mispredict
				vm.st.BTB[slot] = ta
			}
		} else {
			vm.icallDef(icAddr, ta, icDef)
		}
		vm.pushRSB(icRet)
		callee := &cp.funcs[tgt]
		if callee.leaf != nil {
			return vm.runLeaf(callee.leaf, icRet, next)
		}
		if callee.flatEntry0 != nil {
			return vm.runFlatInline(callee, icRet, next)
		}
		return vm.enter(callee, icRet, next)
	})
}

// chargeOf returns an event's per-event run charge (zero unless the
// segment is in per-event accounting mode).
func chargeOf(ci *cinstr) (int64, int64) {
	if ci.charged && ci.preCount != 0 {
		return int64(ci.preCost), int64(ci.preCount)
	}
	return 0, 0
}

func genEvent(cp *compiled, src *cfunc, f *cfn, pre *segPre, ci *cinstr, name string, next cop, entries []cop, flatRet bool) cop {
	pc, pn := chargeOf(ci)
	switch ci.kind {
	case cResolve:
		orig, site, reg := ci.orig, ci.site, int(ci.reg)
		cost := int64(ci.cost)
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			var d *Dist
			if vm.res != nil {
				d = vm.res.Get(orig)
			}
			if d == nil {
				vm.err = trap(name, "interp: %s: no target distribution for site %d (orig %d)", name, site, orig)
				return nil
			}
			tgt := d.pickFast(vm.src)
			vm.regs[reg] = tgt + 1
			if vm.onResolve != nil {
				vm.onResolve(orig, tgt)
			}
			vm.st.Cycles += cost
			vm.st.Stats.Instructions++
			return next
		})

	case cCmpFn:
		reg, want := int(ci.reg), ci.callee+1
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			vm.flag = vm.regs[reg] == want
			return next
		})

	case cBr:
		thenP := &entries[ci.then]
		elsP := &entries[ci.els]
		addr := int64(ci.addr)
		switch {
		case ci.trip > 0:
			tripIdx, tripMax := int(ci.tripIdx), ci.trip
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				var taken bool
				cnt := vm.trips[tripIdx]
				if cnt < tripMax-1 {
					vm.trips[tripIdx] = cnt + 1
					taken = true
				} else {
					vm.trips[tripIdx] = 0
				}
				slot := addr & vm.st.PHTMask
				ctr := vm.st.PHT[slot]
				if (ctr >= 2) == taken {
					vm.st.Stats.PHTHits++
					vm.st.Cycles += vm.condBranchCost
				} else {
					vm.st.Stats.PHTMisses++
					vm.st.Cycles += vm.condBranchCost + vm.mispredict
				}
				if taken {
					if ctr < 3 {
						vm.st.PHT[slot] = ctr + 1
					}
					return *thenP
				}
				if ctr > 0 {
					vm.st.PHT[slot] = ctr - 1
				}
				return *elsP
			})
		case ci.useFlag:
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				taken := vm.flag
				slot := addr & vm.st.PHTMask
				ctr := vm.st.PHT[slot]
				if (ctr >= 2) == taken {
					vm.st.Stats.PHTHits++
					vm.st.Cycles += vm.condBranchCost
				} else {
					vm.st.Stats.PHTMisses++
					vm.st.Cycles += vm.condBranchCost + vm.mispredict
				}
				if taken {
					if ctr < 3 {
						vm.st.PHT[slot] = ctr + 1
					}
					return *thenP
				}
				if ctr > 0 {
					vm.st.PHT[slot] = ctr - 1
				}
				return *elsP
			})
		default:
			thresh := uint32(ci.cost)
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				u := vm.src.Uint64()
				taken := uint32(u>>40) < thresh
				slot := addr & vm.st.PHTMask
				ctr := vm.st.PHT[slot]
				if (ctr >= 2) == taken {
					vm.st.Stats.PHTHits++
					vm.st.Cycles += vm.condBranchCost
				} else {
					vm.st.Stats.PHTMisses++
					vm.st.Cycles += vm.condBranchCost + vm.mispredict
				}
				if taken {
					if ctr < 3 {
						vm.st.PHT[slot] = ctr + 1
					}
					return *thenP
				}
				if ctr > 0 {
					vm.st.PHT[slot] = ctr - 1
				}
				return *elsP
			})
		}

	case cJmp:
		// Unmerged jump (cycle or chain budget); pure transfer.
		thenP := &entries[ci.then]
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			return *thenP
		})

	case cSwitch:
		targets := src.switchTargets[ci.callee]
		nT := uint64(len(targets))
		addr := int64(ci.addr)
		table, def := ci.table, ci.def
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			k := int(uint64nSrc(vm.src, nT))
			if table {
				vm.ijump(addr, int64(k), def)
			} else {
				for j := 0; j <= k && j < len(targets)-1; j++ {
					vm.condBranch(addr+int64(j), j == k)
				}
			}
			return entries[targets[k]]
		})

	case cCall:
		retC := int64(ci.els)
		args := int64(ci.args)
		callee := &cp.funcs[ci.callee]
		if lb := callee.leaf; lb != nil {
			// call->leaf superinstruction: charge the call, run the body
			// inline, resume at next — one dispatch for the whole call.
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				vm.st.Stats.DirectCalls++
				vm.st.Cycles += vm.directCallCost + args*vm.callArgCost
				vm.pushRSB(retC)
				return vm.runLeaf(lb, retC, next)
			})
		}
		if callee.flatEntries != nil {
			// call->flat: frameless nested run on scratch registers.
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				vm.st.Stats.DirectCalls++
				vm.st.Cycles += vm.directCallCost + args*vm.callArgCost
				vm.pushRSB(retC)
				return vm.runFlatInline(callee, retC, next)
			})
		}
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			vm.st.Stats.DirectCalls++
			vm.st.Cycles += vm.directCallCost + args*vm.callArgCost
			vm.pushRSB(retC)
			return vm.enter(callee, retC, next)
		})

	case cICall:
		reg := int(ci.reg)
		site := ci.site
		addr := int64(ci.addr)
		retC := int64(ci.els)
		args := int64(ci.args)
		def := ci.def
		defNone := def == ir.DefNone
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			tgt := vm.regs[reg] - 1
			if tgt < 0 {
				vm.err = trap(name, "interp: %s: icall through unresolved register r%d (site %d)", name, reg, site)
				return nil
			}
			vm.st.Stats.IndirectCalls++
			vm.st.Cycles += args * vm.callArgCost
			ta := cp.addrs[tgt]
			if defNone {
				slot := addr & vm.st.BTBMask
				if vm.st.BTB[slot] == ta {
					vm.st.Stats.BTBHits++
					vm.st.Cycles += vm.indirectCallCost
				} else {
					vm.st.Stats.BTBMisses++
					vm.st.Cycles += vm.indirectCallCost + vm.mispredict
					vm.st.BTB[slot] = ta
				}
			} else {
				vm.icallDef(addr, ta, def)
			}
			vm.pushRSB(retC)
			callee := &cp.funcs[tgt]
			if callee.leaf != nil {
				return vm.runLeaf(callee.leaf, retC, next)
			}
			if callee.flatEntry0 != nil {
				return vm.runFlatInline(callee, retC, next)
			}
			return vm.enter(callee, retC, next)
		})

	case cRet:
		def := ci.def
		if flatRet {
			// Return inside a frameless flat run: same accounting, then
			// end the nested driver loop (vm.err stays nil).
			if def == ir.DefNone {
				return fuse(pre, func(vm *cvm) cop {
					if pn != 0 {
						vm.st.Cycles += pc
						vm.st.Stats.Instructions += pn
					}
					vm.st.Stats.Returns++
					predicted, ok := vm.popRSB()
					if ok && predicted == vm.retAddr {
						vm.st.Stats.RSBHits++
						vm.st.Cycles += vm.returnCost
					} else {
						vm.st.Stats.RSBMisses++
						vm.st.Cycles += vm.returnCost + vm.mispredict
					}
					return nil
				})
			}
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				vm.st.Stats.Returns++
				predicted, ok := vm.popRSB()
				vm.retSlow(predicted, ok, vm.retAddr, def)
				return nil
			})
		}
		if def == ir.DefNone {
			return fuse(pre, func(vm *cvm) cop {
				if pn != 0 {
					vm.st.Cycles += pc
					vm.st.Stats.Instructions += pn
				}
				vm.st.Stats.Returns++
				predicted, ok := vm.popRSB()
				if ok && predicted == vm.retAddr {
					vm.st.Stats.RSBHits++
					vm.st.Cycles += vm.returnCost
				} else {
					vm.st.Stats.RSBMisses++
					vm.st.Cycles += vm.returnCost + vm.mispredict
				}
				d := vm.depth
				if d == 0 {
					return nil
				}
				d--
				fr := &vm.stack[d]
				vm.regs, vm.trips, vm.flag, vm.retAddr = fr.regs, fr.trips, fr.flag, fr.retAddr
				vm.depth = d
				return fr.cont
			})
		}
		return fuse(pre, func(vm *cvm) cop {
			if pn != 0 {
				vm.st.Cycles += pc
				vm.st.Stats.Instructions += pn
			}
			vm.st.Stats.Returns++
			predicted, ok := vm.popRSB()
			vm.retSlow(predicted, ok, vm.retAddr, def)
			d := vm.depth
			if d == 0 {
				return nil
			}
			d--
			fr := &vm.stack[d]
			vm.regs, vm.trips, vm.flag, vm.retAddr = fr.regs, fr.trips, fr.flag, fr.retAddr
			vm.depth = d
			return fr.cont
		})
	}
	// cStep never reaches here (pass 1 folds it into prefixes).
	return fuse(pre, func(vm *cvm) cop {
		vm.err = trap(name, "interp: %s: unknown compiled event", name)
		return nil
	})
}

// genFree emits one event's closure on the model-free chain, or with ci
// nil a standalone prefix. Without a model a prefix's only observable
// is its step/fuel sequence point, so the closure ticks it first when
// pre is non-nil; genEvent's charges, touches and predictor updates
// have nothing to act on. The tick is a captured flag, not a closure
// wrapped around the event as fuse does: the wrapper's extra indirect
// call made profile collection about 5% slower. Calls count into the
// recorder and enter their callee through vm.call.
func genFree(cp *compiled, src *cfunc, pre *segPre, ci *cinstr, name string, next cop, entries []cop, flatRet bool) cop {
	tick := pre != nil
	if ci == nil {
		return func(vm *cvm) cop {
			if vm.tick() {
				return vm.fuelFault(name)
			}
			return next
		}
	}
	switch ci.kind {
	case cResolve:
		orig, site, reg := ci.orig, ci.site, int(ci.reg)
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			var d *Dist
			if vm.res != nil {
				d = vm.res.Get(orig)
			}
			if d == nil {
				vm.err = trap(name, "interp: %s: no target distribution for site %d (orig %d)", name, site, orig)
				return nil
			}
			tgt := d.pickFast(vm.src)
			vm.regs[reg] = tgt + 1
			if vm.onResolve != nil {
				vm.onResolve(orig, tgt)
			}
			return next
		}

	case cCmpFn:
		reg, want := int(ci.reg), ci.callee+1
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			vm.flag = vm.regs[reg] == want
			return next
		}

	case cBr:
		thenP, elsP := &entries[ci.then], &entries[ci.els]
		switch {
		case ci.trip > 0:
			tripIdx, tripMax := int(ci.tripIdx), ci.trip
			return func(vm *cvm) cop {
				if tick && vm.tick() {
					return vm.fuelFault(name)
				}
				if cnt := vm.trips[tripIdx]; cnt < tripMax-1 {
					vm.trips[tripIdx] = cnt + 1
					return *thenP
				}
				vm.trips[tripIdx] = 0
				return *elsP
			}
		case ci.useFlag:
			return func(vm *cvm) cop {
				if tick && vm.tick() {
					return vm.fuelFault(name)
				}
				if vm.flag {
					return *thenP
				}
				return *elsP
			}
		}
		thresh := uint32(ci.cost)
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			if uint32(vm.src.Uint64()>>40) < thresh {
				return *thenP
			}
			return *elsP
		}

	case cJmp:
		thenP := &entries[ci.then]
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			return *thenP
		}

	case cSwitch:
		targets := src.switchTargets[ci.callee]
		nT := uint64(len(targets))
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			return entries[targets[uint64nSrc(vm.src, nT)]]
		}

	case cCall:
		orig := ci.orig
		callee := &cp.funcs[ci.callee]
		if lb := callee.leaf; lb != nil {
			// call->leaf: the callee's kind is known here, so skip
			// vm.call's dispatch on it.
			n := int64(len(lb.segs))
			return func(vm *cvm) cop {
				if tick && vm.tick() {
					return vm.fuelFault(name)
				}
				if vm.rec != nil {
					vm.rec.direct(orig)
				}
				return vm.callLeaf(callee, n, next)
			}
		}
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			if vm.rec != nil {
				vm.rec.direct(orig)
			}
			return vm.call(callee, next)
		}

	case cICall:
		reg, site, orig := int(ci.reg), ci.site, ci.orig
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			tgt := vm.regs[reg] - 1
			if tgt < 0 {
				vm.err = trap(name, "interp: %s: icall through unresolved register r%d (site %d)", name, reg, site)
				return nil
			}
			if vm.rec != nil {
				vm.rec.indirect(orig, tgt)
			}
			return vm.call(&cp.funcs[tgt], next)
		}

	case cRet:
		if flatRet {
			// Ends the nested driver loop of a frameless flat run.
			return func(vm *cvm) cop {
				if tick && vm.tick() {
					return vm.fuelFault(name)
				}
				return nil
			}
		}
		return func(vm *cvm) cop {
			if tick && vm.tick() {
				return vm.fuelFault(name)
			}
			return vm.leave()
		}
	}
	// cStep never reaches here (pass 1 folds it into prefixes).
	return func(vm *cvm) cop {
		vm.err = trap(name, "interp: %s: unknown compiled event", name)
		return nil
	}
}

// --- machine integration --------------------------------------------

// compiledEligible reports whether this machine's configuration can run
// on the compiled tier. Only the model-free chain counts into a
// recorder, so a recorder is admitted exactly when the machine has no
// cpu.Model. Hook and injector observe per-event execution the closure
// chains do not expose; a replaced RNG breaks the concrete-source draw
// path; ExactAccounting exists to exercise the interpreter's per-event
// charging. OnResolve is supported.
func (mc *Machine) compiledEligible() bool {
	return (mc.Rec == nil || mc.CPU == nil) && mc.Hook == nil && mc.Inject == nil &&
		!mc.ExactAccounting && mc.RNG == mc.ownRNG
}

// compiledVM returns the machine's compiled-tier state, made on first
// use.
func (mc *Machine) compiledVM() *cvm {
	if mc.vm == nil {
		mc.vm = &cvm{}
	}
	return mc.vm
}

// reset binds vm to one run of chain cp on mc.
func (vm *cvm) reset(mc *Machine, cp *compiled) {
	vm.cp = cp
	vm.src = mc.src
	vm.res = mc.Res
	vm.onResolve = mc.OnResolve
	vm.rec = mc.Rec
	vm.maxSteps = mc.MaxSteps
	vm.maxDepth = mc.MaxDepth
	vm.steps = 0
	vm.err = nil
}

// drive runs entry fi of vm.cp from a fresh depth-0 frame to the end of
// its chain, with pushFrame's prologue order (the depth check, then the
// entry's invocation count), and returns the run's fault, if any.
func (vm *cvm) drive(fi int32, retAddr int64) error {
	cf := &vm.cp.funcs[fi]
	var op cop
	if vm.maxDepth <= 0 {
		op = vm.depthFault(cf.name)
	} else {
		if vm.rec != nil {
			vm.rec.invoke(fi)
		}
		vm.installFrame(cf, 0, retAddr)
		op = cf.entry0
	}
	for op != nil {
		op = op(vm)
	}
	err := vm.err
	vm.err = nil
	return err
}

// runFree executes one entry on the model-free chain. There is no model
// state to borrow, so the run is the entry frame and the chain.
func (mc *Machine) runFree(fi int32, entryRetAddr int64) error {
	vm := mc.compiledVM()
	vm.reset(mc, mc.Prog.freeProgram())
	err := vm.drive(fi, entryRetAddr)
	mc.steps = vm.steps
	return err
}

// runCompiled executes one entry on the charged chain against the
// machine's cpu.Model. It returns errEngineUnavailable (without touching
// any model state) when the model's geometry has no inlined form; the
// caller falls back to the interpreter.
func (mc *Machine) runCompiled(fi int32, entryRetAddr int64) error {
	model := mc.CPU
	vm := mc.compiledVM()
	if vm.model != model {
		// First run against this model: take the full borrowed view and
		// hoist the cost parameters. Parameters and geometry are fixed at
		// Model construction, so later runs only re-sync the scalars the
		// model may have evolved between runs.
		model.EngineView(&vm.st)
		// Geometry gate for the raw-pointer icache probe and RSB (see
		// the cvm field comments): the two-way probe needs two ways,
		// and any other shape would break the in-bounds argument.
		if vm.st.ICWays < 2 ||
			len(vm.st.ICTags) != int(vm.st.ICMask+1)*vm.st.ICWays ||
			len(vm.st.RSB) != vm.st.RSBDepth || vm.st.RSBDepth < 1 {
			return errEngineUnavailable
		}
		vm.rsbP = unsafe.Pointer(&vm.st.RSB[0])
		vm.icTagsP = unsafe.Pointer(&vm.st.ICTags[0])
		vm.icSetMask = uint64(vm.st.ICMask)
		vm.icShiftN = uint64(vm.st.ICShift)
		vm.icWaysN = uintptr(vm.st.ICWays)
		par := &model.P
		vm.mispredict = par.MispredictPenalty
		vm.icMissPenalty = par.ICacheMissPenalty
		vm.directCallCost = par.DirectCallCost
		vm.callArgCost = par.CallArgCost
		vm.returnCost = par.ReturnCost
		vm.indirectCallCost = par.IndirectCallCost
		vm.condBranchCost = par.CondBranchCost
		vm.rsbRefillCost = par.RSBRefillCost
		vm.alignMask = ^(par.ICacheLine - 1)
		vm.icLine = par.ICacheLine
		vm.model = model
	} else {
		model.EngineSync(&vm.st)
	}
	vm.reset(mc, mc.Prog.compiledProgram())

	// Entry sequence, in the interpreter's order: RSB refill and the
	// synthetic entry call, then the depth-0 frame check.
	if mc.RefillRSB {
		vm.refillRSB()
	}
	vm.st.Stats.DirectCalls++
	vm.st.Cycles += vm.directCallCost
	vm.pushRSB(entryRetAddr)

	err := vm.drive(fi, entryRetAddr)
	mc.steps = vm.steps
	model.EngineRestore(&vm.st)
	return err
}
