// Threaded-code compilation tier: the engine every machine runs unless
// it selects the reference loop (EngineInterp).
//
// The reference loop (interp.go) pays a switch dispatch, a
// bounds-checked event fetch and several cpu.Model method calls per
// control-flow event. This tier removes all three: each cblock is
// pre-compiled into a chain of Go closures (classic threaded code — the
// standard pure-Go answer to having no runtime codegen), so
// steady-state execution runs closure-to-closure through a
// two-instruction driver loop (`for op != nil { op = op(vm) }`) with
// every compile-time constant — addresses, costs, branch thresholds,
// defense kinds, callee identities — captured in the closure instead of
// fetched and decoded per event.
//
// Cycle accounting is folded into the chain: the VM borrows the
// cpu.Model's predictor and cache state (cpu.EngineState) for the
// duration of a run and applies the model's own update rules inline,
// with Cycles/Stats accumulating in VM-local fields written back at
// exit. Straight-line runs of segments that cannot fault are charged in
// one batch at segment entry. Because every charge is a pure sum and the
// order-sensitive state (BTB/PHT slots, RSB cursor, the i-cache sets'
// recency order) is updated through the same arrays with the same rules
// in the same sequence, the tier is cycle-exact against the reference
// loop's per-event account — a property the equivalence tests,
// FuzzCompiledEquivalence and the diffcheck engine-vs-engine gate all
// enforce.
//
// Superinstruction fusion: profiling the syscall path found its hot
// event shapes — straight-line segments ending in a return ("step,ret"
// leaf helpers), direct calls into those helpers, resolve feeding an
// indirect call, and block-entry accounting feeding a terminator — and
// PIBE's passes add two more: ICP's compare-and-branch chains, and the
// seams every inlined call leaves back to back (the inliner rewrites
// the callee's return to a jump). Each is fused here:
//
//   - call->leaf and icall->leaf: a call whose callee is a call-free
//     straight-line body executes the whole callee (segment charges,
//     icache touches, the return) inside the caller's closure, from a
//     data-driven leaf descriptor — no frame push, no dispatch. Every
//     other callee runs in a pooled frame (enter), one call protocol.
//   - resolve+icall: one closure draws the target and dispatches it,
//     skipping the register round-trip decode.
//   - cmpfn+branch: a promoted target's compare and the flag branch
//     after it run in one closure, which still writes the flag.
//   - runs of sequence points: a block entry or superblock seam (cStep)
//     and every seam after it up to the next event are one run, a
//     compile-time prefix baked into that event's closure. It does one
//     step update and fuel check, adds the run's charges, summed at
//     compile time, then makes each point's icache touches in order. A
//     run that would cross the step limit, and every run under an armed
//     injector, replays point by point. A leaf body is a run too.
//   - repeat touches: a point whose first line is the single line the
//     previous point of its block touched, with no call or icall
//     between, touches a way-0 line, a hit that changes no tag; it is
//     counted at compile time instead of probed.
//
// Machines without a cpu.Model run a second, model-free chain built by
// the same compileProgram skeleton: the same block split, leaf
// descriptors, frame protocol and fault helpers, with per-event
// closures that keep only what such a run can observe — the step/fuel
// sequence points at block entries and seams (a run of them one tick
// of k steps), control flow, random draws, resolver picks, OnResolve,
// traps and the Recorder's counts.
// The counts land at the reference loop's sequence points: a direct or
// indirect edge before the callee's call check, the callee's invocation
// after it (the entry's too), so every profile, partial ones after a
// fuel, depth or unresolved-site trap included, is byte-identical to
// the reference loop's. Profile collection runs on it.
//
// A machine's ICallHook is a nil check in the charged chain's
// undefended icall closures. Its injector adds nothing to either
// chain's fast paths: reset installs step and depth limits every check
// fails, so each block entry, seam and call takes the slow path that
// already handles the real limits, and that path draws from the
// injector in the reference loop's order. Slow paths are tail calls
// (see callSlow).
package interp

import (
	"errors"
	"slices"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/resilience"
)

// Engine selects the execution tier a Machine uses.
type Engine uint8

const (
	// EngineCompiled, the zero value, is the threaded-code tier, the
	// engine every machine runs by default.
	EngineCompiled Engine = iota
	// EngineInterp is the per-event reference loop, the oracle the
	// threaded-code tier is checked against.
	EngineInterp
)

func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "compiled"
}

// errEngineUnavailable reports that the model's geometry has no inlined
// form (an i-cache with fewer than two ways, which the two-way probe
// needs); the caller runs the reference loop instead.
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
}

// leafSeg is one step/fuel sequence point: a block entry or superblock
// seam, with the charge batched at it and the lines it touches.
type leafSeg struct {
	// cost and count are the segment's batched charge, due after the
	// fuel check; zero for a segment its events charge (mayFault).
	cost, count int32
	lineBase    int32
	nLines      int32
	// repeat marks a point whose first line is the single line the
	// previous point of its block touched, with no call or icall
	// between them. That touch is a way-0 hit that changes no tag, so it
	// is counted (segRun.hits), not probed.
	repeat bool
}

// segRun is a run of back-to-back sequence points: a block entry or
// seam followed by every seam up to the next event, or a leaf body.
// Its charges are summed at compile time, so a run whose one fuel check
// passes costs one step update, one check and its probes (runFast);
// one that would cross the step limit replays point by point
// (runCareful).
type segRun struct {
	name string
	// preCost and preCount are the charged run before the first point
	// (a seam's segment charged per event), due before its fuel check.
	preCost, preCount int64
	cost, count       int64 // sums of the points' batched charges
	hits              int64 // repeat points, each an i-cache hit
	segs              []leafSeg
}

// leafBody is the data-driven description of a leaf function, executed
// inline at fused call sites: its segments are one run.
type leafBody struct {
	run    segRun
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

	// execution state. maxSteps and maxDepth are the limits the fast
	// paths compare against: the machine's own, or with an injector
	// limits every check fails (see reset).
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
	// into it (RunIndex rejects a recorder beside a model).
	rec *Recorder

	// The slow paths' state: the machine's injector and real limits,
	// which fuelFault and depthFault apply.
	inject     *resilience.Injector
	stepLimit  int64
	depthLimit int

	// hook is the machine's ICallHook, consulted by the charged chain's
	// undefended icalls.
	hook ICallHook
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

// hookedCall runs an undefended icall the machine's ICallHook
// intercepts: the hook's cycles, then a direct call's charge and RSB
// push, then the callee. Only JumpSwitches machines take it, and as a
// tail call (see callSlow) it costs the icall closures one nil check.
//
//go:noinline
func (vm *cvm) hookedCall(site ir.SiteID, target int32, args, retAddr int64, next cop) cop {
	vm.st.Cycles += vm.hook.Handle(site, target)
	vm.st.Stats.DirectCalls++
	vm.st.Cycles += vm.directCallCost + args*vm.callArgCost
	vm.pushRSB(retAddr)
	callee := &vm.cp.funcs[target]
	if callee.leaf != nil {
		return vm.runLeaf(callee, retAddr, next)
	}
	return vm.enter(callee, retAddr, next)
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

// fuelFault is the slow path of a step/fuel sequence point whose fast
// check failed: fuelCheck against the real budget and the injector. It
// reports whether the run faults; if not, the run goes on. It and
// depthFault stay out of line so the closures' fast paths stay small.
//
//go:noinline
func (vm *cvm) fuelFault(name string) bool {
	vm.err = fuelCheck(vm.inject, name, vm.steps, vm.stepLimit)
	return vm.err != nil
}

// depthFault is the slow path of a call whose fast depth check failed:
// callCheck at callee depth d against the real limit and the injector.
// It reports whether the run faults; if not, the call goes on.
//
//go:noinline
func (vm *cvm) depthFault(name string, d int) bool {
	vm.err = callCheck(vm.inject, name, d, vm.depthLimit)
	return vm.err != nil
}

// --- frame protocol -------------------------------------------------

// enter suspends the current frame and installs a fresh one for cf,
// mirroring pushFrame (call check, invocation count, cleared
// registers/trips). cont is the closure to resume the caller at after
// cf returns.
func (vm *cvm) enter(cf *cfn, retAddr int64, cont cop) cop {
	d := vm.depth + 1
	if d >= vm.maxDepth {
		return vm.callSlow(cf, retAddr, cont, (*cvm).enter)
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	if vm.depth >= len(vm.stack) {
		vm.stack = append(vm.stack, make([]cframe, vm.depth+1-len(vm.stack))...)
	}
	fr := &vm.stack[vm.depth]
	fr.regs, fr.trips, fr.flag, fr.retAddr, fr.cont = vm.regs, vm.trips, vm.flag, vm.retAddr, cont
	vm.installFrame(cf, d, retAddr)
	return cf.entry0
}

// callSlow is the slow path of a call into cf whose fast depth check
// failed: depthFault, and if the call goes on (only an injected run's
// can), run — the fast path that called it — under the real depth
// limit. Every slow path is a tail call like this one, so a closure or
// helper keeps nothing live across it and its fast path saves nothing
// to the stack.
//
//go:noinline
func (vm *cvm) callSlow(cf *cfn, retAddr int64, next cop, run func(*cvm, *cfn, int64, cop) cop) cop {
	if vm.depthFault(cf.name, vm.depth+1) {
		return nil
	}
	limit := vm.maxDepth
	vm.maxDepth = vm.depthLimit
	op := run(vm, cf, retAddr, next)
	vm.maxDepth = limit
	return op
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

// runFast charges a run whose one fuel check passed: its summed charge
// and repeat hits, then each point's probes in order. The end state is
// the careful path's, because charges are pure sums and the touches
// keep their order.
func (vm *cvm) runFast(r *segRun) {
	vm.st.Cycles += r.cost
	vm.st.Stats.Instructions += r.count
	vm.st.Stats.ICacheHits += r.hits
	for i := range r.segs {
		// touchSeg, written out so that the probes inline here.
		s := &r.segs[i]
		line, n := int64(s.lineBase)&vm.alignMask, s.nLines
		if s.repeat {
			line, n = line+vm.icLine, n-1
		}
		for ; n > 0; n-- {
			if !vm.touchProbe(line) {
				vm.touchSlow(line)
			}
			line += vm.icLine
		}
	}
}

// runCareful replays the points of a run of function name one by one,
// as the reference loop's sequence points run: the step and its fuel
// check (where an armed injector draws), then the point's charge,
// repeat hit and probes. It reports false if a point faults.
func (vm *cvm) runCareful(name string, segs []leafSeg) bool {
	for i := range segs {
		s := &segs[i]
		vm.steps++
		if vm.steps > vm.maxSteps && vm.fuelFault(name) {
			return false
		}
		vm.st.Cycles += int64(s.cost)
		vm.st.Stats.Instructions += int64(s.count)
		if s.repeat {
			vm.st.Stats.ICacheHits++
		}
		vm.touchSeg(s)
	}
	return true
}

// touchSeg touches a point's lines but a repeat point's first.
func (vm *cvm) touchSeg(s *leafSeg) {
	if s.repeat {
		vm.touchN(int64(s.lineBase)+vm.icLine, int(s.nLines)-1)
	} else {
		vm.touchN(int64(s.lineBase), int(s.nLines))
	}
}

// runLeaf executes a leaf body inline at a call site on the charged
// chain: the exact observable sequence of a framed call of this shape —
// call check, one step/fuel sequence point plus batched charge and
// icache touch per segment, then the return — with no frame and no
// dispatch. The caller has already charged the call itself. next
// resumes the caller.
func (vm *cvm) runLeaf(cf *cfn, retAddr int64, next cop) cop {
	if vm.depth+1 >= vm.maxDepth {
		return vm.callSlow(cf, retAddr, next, (*cvm).runLeaf)
	}
	lb := cf.leaf
	if n := int64(len(lb.run.segs)); vm.steps+n <= vm.maxSteps {
		vm.steps += n
		vm.runFast(&lb.run)
	} else if !vm.runCareful(cf.name, lb.run.segs) {
		return nil
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

// --- model-free frame protocol -------------------------------------

// tick is a run of n step/fuel sequence points on the model-free chain;
// it reports whether the fast check failed, so tickSlow must decide.
func (vm *cvm) tick(n int64) bool {
	vm.steps += n
	return vm.steps > vm.maxSteps
}

// tickSlow is the slow path of a model-free tick of n points: they run
// again one by one through fuelFault, and if none faults, op — the
// ticked event compiled without its tick. Like callSlow it is a tail
// call.
//
//go:noinline
func (vm *cvm) tickSlow(name string, n int64, op cop) cop {
	vm.steps -= n
	if !vm.ticks(name, n) {
		return nil
	}
	return op
}

// ticks runs n sequence points one by one through fuelFault and reports
// whether the run goes on.
func (vm *cvm) ticks(name string, n int64) bool {
	for ; n > 0; n-- {
		vm.steps++
		if vm.fuelFault(name) {
			return false
		}
	}
	return true
}

// call enters cf on the model-free chain once the caller has counted
// its edge: the callee's call check, then its invocation count (the
// order of pushFrame), then its body — a leaf's segments as one fuel
// charge, anything else in a fresh frame. No return address is kept
// without a model.
func (vm *cvm) call(cf *cfn, next cop) cop {
	if lb := cf.leaf; lb != nil {
		return vm.callLeaf(cf, int64(len(lb.run.segs)), next)
	}
	return vm.enter(cf, 0, next)
}

// callLeaf is vm.call for a leaf callee of n segments: with depth and
// fuel to spare, the invocation count and one fuel charge for the whole
// body.
func (vm *cvm) callLeaf(cf *cfn, n int64, next cop) cop {
	if vm.depth+1 >= vm.maxDepth || vm.steps+n > vm.maxSteps {
		return vm.leafFault(cf, n, next)
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	vm.steps += n
	return next
}

// leafFault is callLeaf's slow path, in the reference loop's order: the
// call check, the invocation count, then one step/fuel sequence point
// per segment. It returns next if the body runs to its return.
func (vm *cvm) leafFault(cf *cfn, n int64, next cop) cop {
	if vm.depthFault(cf.name, vm.depth+1) {
		return nil
	}
	if vm.rec != nil {
		vm.rec.invoke(cf.index)
	}
	if !vm.ticks(cf.name, n) {
		return nil
	}
	return next
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
	var sp splitter
	for i := range p.funcs {
		src := &p.funcs[i]
		cp.addrs[i] = src.addr
		f := cfn{
			name:     src.name,
			index:    int32(i),
			numRegs:  src.numRegs,
			numTrips: src.numTrips,
			entries:  make([]cop, len(src.blocks)),
			leaf:     sp.leafOf(src),
		}
		cp.funcs[i] = f
	}
	for i := range p.funcs {
		src, entries := &p.funcs[i], cp.funcs[i].entries
		for bi := range src.blocks {
			entries[bi] = compileBlock(cp, &sp, src, entries, bi, free)
		}
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
	}
	return cp
}

// leafOf recognises functions whose merged entry chain is pure
// straight-line code ending in a return — the "step,ret" shape the
// profiler identifies as the hottest callee — and builds the inline
// descriptor. Flatness guarantees no segment may fault, so every
// segment charge is batched and the segments are one run.
func (sp *splitter) leafOf(f *cfunc) *leafBody {
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
	run := sp.split(b, f.name)[0].pre
	run.segs = slices.Clone(run.segs)
	return &leafBody{run: run, retDef: ret.def}
}

// item is one event of a block's merged event list with the run of
// sequence points before it (none when pre.segs is empty), or with ci
// nil a run no event follows.
type item struct {
	pre segRun
	ci  *cinstr
}

// splitter splits blocks into items. It keeps its buffers from block to
// block, so compilation allocates nothing per seam, and a run's points
// are only valid until the next split: fuse and leafOf copy those they
// keep.
type splitter struct {
	items []item
	pts   []leafSeg
}

// split splits a block's merged event list into (run, event) pairs. A
// run is the block entry or a seam (cStep) followed by every seam up to
// the next event: inlining rewrites each callee's return to a jump, so
// every inlined call leaves seams back to back. A point whose charge is
// due before its fuel check (a seam after a segment charged per event)
// opens a run of its own, so only a run's first point carries one.
//
// It also marks repeat points: a point whose first line is the single
// line the block's previous point touched, with only resolves and
// compares between them. The model touches lines of its own size, and
// equal 64-byte bases after a one-line point are the one case that is
// a way-0 hit under every line size.
func (sp *splitter) split(b *cblock, name string) []item {
	items, pts := sp.items[:0], sp.pts[:0]
	if n := len(b.instrs) + 1; cap(pts) < n {
		pts = make([]leafSeg, 0, n) // every run below is a window of pts
	}
	var (
		run  segRun // the open run, whose points are pts[lo:]
		lo   int
		last = int32(-1) // the single line the last point touched; -1 if none
	)
	closeRun := func() segRun {
		r := run
		r.segs = pts[lo:len(pts):len(pts)]
		run, lo = segRun{}, len(pts)
		return r
	}
	point := func(s leafSeg, preCost, preCount int64) {
		if preCount != 0 && len(pts) > lo {
			items = append(items, item{pre: closeRun()})
		}
		if len(pts) == lo {
			run = segRun{name: name, preCost: preCost, preCount: preCount}
		}
		s.repeat = last >= 0 && s.lineBase == last
		last = -1
		if s.nLines == 1 {
			last = s.lineBase
		}
		run.cost += int64(s.cost)
		run.count += int64(s.count)
		if s.repeat {
			run.hits++
		}
		pts = append(pts, s)
	}
	entry := leafSeg{lineBase: b.lineBase, nLines: b.nLines}
	if !b.mayFault {
		entry.cost, entry.count = b.segCost, b.segCount
	}
	point(entry, 0, 0)
	for ii := range b.instrs {
		ci := &b.instrs[ii]
		if ci.kind == cStep {
			s := leafSeg{lineBase: ci.addr, nLines: ci.then}
			if !ci.useFlag {
				s.cost, s.count = ci.cost, ci.els
			}
			pc, pn := chargeOf(ci)
			point(s, pc, pn)
			continue
		}
		it := item{ci: ci}
		if len(pts) > lo {
			it.pre = closeRun()
		}
		items = append(items, it)
		if ci.kind == cCall || ci.kind == cICall {
			last = -1 // the callee touches lines of its own
		}
	}
	if len(pts) > lo {
		items = append(items, item{pre: closeRun()})
	}
	sp.items, sp.pts = items, pts
	return items
}

// fuse bakes a run's accounting in front of a body closure, so the run
// and the body execute under one driver dispatch: the block-entry (or
// seam) plus event superinstruction. A run with at most two lines to
// probe, most runs on PIBE's images, keeps all its fast path needs in
// the closure; a longer one loops over its points (runFast).
//
// fuse stays out of line so that its closures are compiled with it and
// not with its callers: genEvent and compileBlock are large enough that
// the compiler lowers the inlining budget of every closure built in
// them, and touchProbe then becomes a call in the hottest closures.
//
//go:noinline
func fuse(r segRun, body cop) cop {
	if len(r.segs) == 0 {
		return body
	}
	name, n := r.name, int64(len(r.segs))
	if s := r.segs[0]; n == 1 && r.preCount == 0 && s.nLines == 1 && !s.repeat {
		// The dominant prefix of unoptimized code: one point touching
		// one line. Its closure keeps the point's 32-bit fields.
		cost, count, lb := s.cost, s.count, s.lineBase
		return func(vm *cvm) cop {
			vm.steps++
			if vm.steps > vm.maxSteps {
				return vm.lineSlow(name, int64(cost), int64(count), int64(lb), body)
			}
			vm.st.Cycles += int64(cost)
			vm.st.Stats.Instructions += int64(count)
			line := int64(lb) & vm.alignMask
			if !vm.touchProbe(line) {
				vm.touchSlow(line)
			}
			return body(vm)
		}
	}
	segs := slices.Clone(r.segs)
	// The lines the fast path probes, in order: each point's lines but a
	// repeat point's first, as the point's base and the line's index.
	var base, idx [2]int32
	np := int32(0)
	for _, s := range segs {
		for j := int32(0); j < s.nLines; j++ {
			if j == 0 && s.repeat {
				continue
			}
			if int(np) < len(base) {
				base[np], idx[np] = s.lineBase, j
			}
			np++
		}
	}
	preCost, preCount := r.preCost, r.preCount
	if int(np) > len(base) {
		rp := &segRun{name: name, preCost: preCost, preCount: preCount, cost: r.cost, count: r.count, hits: r.hits, segs: segs}
		return func(vm *cvm) cop {
			if preCount != 0 {
				vm.st.Cycles += preCost
				vm.st.Stats.Instructions += preCount
			}
			vm.steps += n
			if vm.steps > vm.maxSteps {
				return vm.runSlow(rp.name, rp.segs, body)
			}
			vm.runFast(rp)
			return body(vm)
		}
	}
	// The closure keeps the rest in 32 bits, as the dominant prefix's
	// does: on PIBE's images it is the most numerous one.
	cost, count := r.cost, r.count
	pc, pn, n32, hits := int32(preCost), int32(preCount), int32(n), int32(r.hits)
	b0, i0, b1, i1 := base[0], idx[0], base[1], idx[1]
	return func(vm *cvm) cop {
		if pn != 0 {
			vm.st.Cycles += int64(pc)
			vm.st.Stats.Instructions += int64(pn)
		}
		vm.steps += int64(n32)
		if vm.steps > vm.maxSteps {
			return vm.runSlow(name, segs, body)
		}
		vm.st.Cycles += cost
		vm.st.Stats.Instructions += count
		vm.st.Stats.ICacheHits += int64(hits)
		if np > 0 {
			line := int64(b0)&vm.alignMask + int64(i0)*vm.icLine
			if !vm.touchProbe(line) {
				vm.touchSlow(line)
			}
			if np > 1 {
				line = int64(b1)&vm.alignMask + int64(i1)*vm.icLine
				if !vm.touchProbe(line) {
					vm.touchSlow(line)
				}
			}
		}
		return body(vm)
	}
}

// runSlow is the slow path of a run whose one fuel check failed, after
// any charge before its first point: the points run again one by one,
// and if none faults, body. Like callSlow it is a tail call.
//
//go:noinline
func (vm *cvm) runSlow(name string, segs []leafSeg, body cop) cop {
	vm.steps -= int64(len(segs))
	if !vm.runCareful(name, segs) {
		return nil
	}
	return body
}

// lineSlow is runSlow for fuse's dominant one-point, one-line prefix,
// whose step is already counted. Its fields come as separate arguments,
// which keep that closure's stack frame as small as its fast path
// needs.
//
//go:noinline
func (vm *cvm) lineSlow(name string, cost, count, lineBase int64, body cop) cop {
	if vm.fuelFault(name) {
		return nil
	}
	vm.st.Cycles += cost
	vm.st.Stats.Instructions += count
	vm.touchN(lineBase, 1)
	return body
}

func compileBlock(cp *compiled, sp *splitter, src *cfunc, entries []cop, bi int, free bool) cop {
	b := &src.blocks[bi]
	name := src.name
	items := sp.split(b, name)

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

	// Build closures back-to-front so each captures its
	// successor directly. On the charged chain a resolve and the icall
	// reading its register fuse into one closure, as do a compare and
	// the flag branch after it; the model-free chain gained nothing
	// measurable from either fusion.
	for k := len(items) - 1; k >= 0; k-- {
		it := items[k]
		if free {
			next = genFree(cp, src, int64(len(it.pre.segs)), it.ci, name, next, entries)
			continue
		}
		if it.ci == nil {
			next = fuse(it.pre, next)
			continue
		}
		if k > 0 && fusesWith(items[k-1].ci, it) {
			// Fused into the preceding resolve or compare (compiled next
			// iteration); `next` stays pointing at the chain after this
			// event, which is exactly the fused pair's continuation.
			continue
		}
		if k+1 < len(items) && fusesWith(it.ci, items[k+1]) {
			if it.ci.kind == cResolve {
				next = genResolveICall(cp, it.pre, it.ci, items[k+1].ci, name, next)
			} else {
				next = genCmpBr(it.pre, it.ci, items[k+1].ci, entries)
			}
			continue
		}
		next = genEvent(cp, src, it.pre, it.ci, name, next, entries)
	}
	return next
}

// fusesWith reports whether event first and the item after it compile
// to one closure on the charged chain: a resolve and the icall through
// its register, or a compare and the flag branch reading it (one with
// no trip count), with no sequence point between the two.
func fusesWith(first *cinstr, it item) bool {
	second := it.ci
	if first == nil || second == nil || len(it.pre.segs) != 0 {
		return false
	}
	switch first.kind {
	case cResolve:
		return second.kind == cICall && second.reg == first.reg
	case cCmpFn:
		return second.kind == cBr && second.useFlag && second.trip == 0
	}
	return false
}

// genResolveICall emits the fused resolve+icall superinstruction.
func genResolveICall(cp *compiled, pre segRun, res *cinstr, ic *cinstr, name string, next cop) cop {
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
		tgt := d.pick(vm.src)
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
		if defNone && vm.hook != nil {
			return vm.hookedCall(orig, tgt, icArgs, icRet, next)
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
			return vm.runLeaf(callee, icRet, next)
		}
		return vm.enter(callee, icRet, next)
	})
}

// genCmpBr emits the fused compare+branch superinstruction: a promoted
// target's cmpfn and the flag branch after it. It still writes vm.flag,
// which a frame saves across calls.
func genCmpBr(pre segRun, cmp, br *cinstr, entries []cop) cop {
	cc, cn := chargeOf(cmp)
	bc, bn := chargeOf(br)
	pc, pn := cc+bc, cn+bn // nothing between the two can fault
	reg, want := int(cmp.reg), cmp.callee+1
	thenP, elsP := &entries[br.then], &entries[br.els]
	addr := int64(br.addr)
	return fuse(pre, func(vm *cvm) cop {
		if pn != 0 {
			vm.st.Cycles += pc
			vm.st.Stats.Instructions += pn
		}
		taken := vm.regs[reg] == want
		vm.flag = taken
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

// chargeOf returns an event's per-event run charge (zero unless the
// segment is in per-event accounting mode).
func chargeOf(ci *cinstr) (int64, int64) {
	if ci.charged && ci.preCount != 0 {
		return int64(ci.preCost), int64(ci.preCount)
	}
	return 0, 0
}

func genEvent(cp *compiled, src *cfunc, pre segRun, ci *cinstr, name string, next cop, entries []cop) cop {
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
			tgt := d.pick(vm.src)
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
			k := int(uint64n(vm.src, nT))
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
		if callee.leaf != nil {
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
				return vm.runLeaf(callee, retC, next)
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
		site, orig := ci.site, ci.orig
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
			if defNone && vm.hook != nil {
				return vm.hookedCall(orig, tgt, args, retC, next)
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
				return vm.runLeaf(callee, retC, next)
			}
			return vm.enter(callee, retC, next)
		})

	case cRet:
		def := ci.def
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
	// cStep never reaches here (split folds it into runs).
	return fuse(pre, func(vm *cvm) cop {
		vm.err = trap(name, "interp: %s: unknown compiled event", name)
		return nil
	})
}

// genFree emits one event's closure on the model-free chain, or with ci
// nil a standalone run. Without a model a run of sequence points shows
// only its steps and fuel checks, so the closure first ticks the run
// before the event, all its points in one step update; genEvent's
// charges, touches and predictor updates have nothing to act on. The
// tick is a captured count, not a closure wrapped around the event as
// fuse does: the wrapper's extra indirect call made profile collection
// about 5% slower. Calls count into the recorder, then enter their
// callee: a direct call through callLeaf or enter, chosen at compile
// time, an icall through vm.call.
func genFree(cp *compiled, src *cfunc, ticks int64, ci *cinstr, name string, next cop, entries []cop) cop {
	if ci == nil {
		return func(vm *cvm) cop {
			if vm.tick(ticks) {
				return vm.tickSlow(name, ticks, next)
			}
			return next
		}
	}
	// plain is the event without its tick, where tickSlow goes on.
	var plain cop
	if ticks != 0 {
		plain = genFree(cp, src, 0, ci, name, next, entries)
	}
	switch ci.kind {
	case cResolve:
		orig, site, reg := ci.orig, ci.site, int(ci.reg)
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			var d *Dist
			if vm.res != nil {
				d = vm.res.Get(orig)
			}
			if d == nil {
				vm.err = trap(name, "interp: %s: no target distribution for site %d (orig %d)", name, site, orig)
				return nil
			}
			tgt := d.pick(vm.src)
			vm.regs[reg] = tgt + 1
			if vm.onResolve != nil {
				vm.onResolve(orig, tgt)
			}
			return next
		}

	case cCmpFn:
		reg, want := int(ci.reg), ci.callee+1
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
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
				if ticks != 0 && vm.tick(ticks) {
					return vm.tickSlow(name, ticks, plain)
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
				if ticks != 0 && vm.tick(ticks) {
					return vm.tickSlow(name, ticks, plain)
				}
				if vm.flag {
					return *thenP
				}
				return *elsP
			}
		}
		thresh := uint32(ci.cost)
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			if uint32(vm.src.Uint64()>>40) < thresh {
				return *thenP
			}
			return *elsP
		}

	case cJmp:
		thenP := &entries[ci.then]
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			return *thenP
		}

	case cSwitch:
		targets := src.switchTargets[ci.callee]
		nT := uint64(len(targets))
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			return entries[targets[uint64n(vm.src, nT)]]
		}

	case cCall:
		orig := ci.orig
		callee := &cp.funcs[ci.callee]
		if lb := callee.leaf; lb != nil {
			// call->leaf: the callee's kind is known here, so skip
			// vm.call's dispatch on it.
			n := int64(len(lb.run.segs))
			return func(vm *cvm) cop {
				if ticks != 0 && vm.tick(ticks) {
					return vm.tickSlow(name, ticks, plain)
				}
				if vm.rec != nil {
					vm.rec.direct(orig)
				}
				return vm.callLeaf(callee, n, next)
			}
		}
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			if vm.rec != nil {
				vm.rec.direct(orig)
			}
			return vm.enter(callee, 0, next)
		}

	case cICall:
		reg, site, orig := int(ci.reg), ci.site, ci.orig
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
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
		return func(vm *cvm) cop {
			if ticks != 0 && vm.tick(ticks) {
				return vm.tickSlow(name, ticks, plain)
			}
			return vm.leave()
		}
	}
	// cStep never reaches here (split folds it into runs).
	return func(vm *cvm) cop {
		vm.err = trap(name, "interp: %s: unknown compiled event", name)
		return nil
	}
}

// --- machine integration --------------------------------------------

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
	vm.hook = mc.Hook
	vm.inject = mc.Inject
	vm.stepLimit, vm.depthLimit = mc.MaxSteps, mc.MaxDepth
	vm.maxSteps, vm.maxDepth = mc.MaxSteps, mc.MaxDepth
	if mc.Inject != nil {
		// Every fast check fails against these (steps is at least 1 at a
		// check, depth at least 0), so each block entry, seam and call
		// takes its slow path, which draws from the injector.
		vm.maxSteps, vm.maxDepth = 0, 0
	}
	vm.steps = 0
	vm.err = nil
}

// drive runs entry fi of vm.cp from a fresh depth-0 frame to the end of
// its chain, with pushFrame's prologue order (the call check, then the
// entry's invocation count), and returns the run's fault, if any.
func (vm *cvm) drive(fi int32, retAddr int64) error {
	cf := &vm.cp.funcs[fi]
	var op cop
	if 0 < vm.maxDepth || !vm.depthFault(cf.name, 0) {
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
	return vm.drive(fi, entryRetAddr)
}

// runCompiled executes one entry on the charged chain against the
// machine's cpu.Model. It returns errEngineUnavailable (without touching
// any model state) when the model's geometry has no inlined form; the
// caller runs the reference loop instead.
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

	// Entry sequence, in the reference loop's order: RSB refill and the
	// synthetic entry call, then the depth-0 call check.
	if mc.RefillRSB {
		vm.refillRSB()
	}
	vm.st.Stats.DirectCalls++
	vm.st.Cycles += vm.directCallCost
	vm.pushRSB(entryRetAddr)

	err := vm.drive(fi, entryRetAddr)
	model.EngineRestore(&vm.st)
	return err
}
