// Package cpu models the microarchitectural state that transient
// control-flow attacks abuse and that PIBE's cost/benefit game is played
// against: the branch target buffer (BTB), the return stack buffer (RSB),
// the pattern history table (PHT) and the instruction cache.
//
// The model is a timing simulator, not a pipeline simulator: every
// control-flow event is charged a cycle cost derived from predictor state,
// and hardened sites are charged the thunk costs measured in Table 1 of
// the paper. It is deliberately deterministic — same instruction stream,
// same cycle count — so experiments are reproducible.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/ir"
)

// Params configures the model. The zero value is not usable; call
// DefaultParams.
type Params struct {
	// BTBEntries is the number of direct-mapped BTB slots (power of two).
	// Indirect branches index the BTB with the low bits of their
	// address, so distinct branches can alias — the property Spectre V2
	// exploits.
	BTBEntries int
	// RSBDepth is the return stack buffer depth (typically 16).
	RSBDepth int
	// PHTEntries is the number of 2-bit pattern history counters (power
	// of two).
	PHTEntries int
	// ICacheSets, ICacheWays and ICacheLine describe the instruction
	// cache geometry; sets and line size are powers of two. Defaults
	// model 32 KB / 8-way / 64-byte lines.
	ICacheSets, ICacheWays int
	ICacheLine             int64

	// MispredictPenalty is charged when a branch target or direction is
	// mispredicted (pipeline flush).
	MispredictPenalty int64
	// ICacheMissPenalty is charged per instruction line fetched from L2.
	ICacheMissPenalty int64
	// DirectCallCost is the base cost of a predicted direct call.
	DirectCallCost int64
	// CallArgCost is charged per call argument (argument set-up moves).
	CallArgCost int64
	// ReturnCost is the base cost of a correctly predicted return.
	ReturnCost int64
	// IndirectCallCost is the base cost of a BTB-hit indirect call.
	IndirectCallCost int64
	// CondBranchCost is the base cost of a correctly predicted
	// conditional branch.
	CondBranchCost int64

	// Defense costs, in cycles, matching Table 1 and §6.3 of the paper.
	// A defense whose ir.DefenseInfo keeps the dispatch predicted adds
	// its cost to it; any other replaces prediction entirely: a
	// retpoline always costs RetpolineCost regardless of BTB state.
	RetpolineCost       int64 // Spectre V2 retpoline (forward edge), ~21
	LVIForwardCost      int64 // LVI-CFI lfence on an indirect call, ~9
	FencedRetpolineCost int64 // combined retpoline + LVI (Listing 7), ~42
	RetRetpolineCost    int64 // return retpoline, ~16
	LVIReturnCost       int64 // LVI-CFI return hardening (Listing 6), ~11
	FencedRetRetCost    int64 // combined backward-edge defense, ~32

	// Non-transient defense costs (Table 1's cheap rows).
	CFICheckCost       int64 // LLVM-CFI target-set check, ~3
	StackProtectorCost int64 // canary store+check per return, ~4
	SafeStackCost      int64 // separate return stack bookkeeping, ~1

	// Post-2021 hardware-assisted defense costs. They add to a normally
	// predicted dispatch — that different cost shape (near-constant,
	// tiny) is what moves the budget/benefit knee relative to retpolines.
	FineIBTCheckCost int64 // landing-pad SID compare at the callee, ~4
	PACSignCost      int64 // pointer-auth sign on the call side, ~6
	PACAuthCost      int64 // return-address authenticate, ~8
	VeriFenceCost    int64 // lfence at a verifier-unproved site, ~10

	// RSBRefillCost is the cost of stuffing the RSB with benign entries
	// on a privilege transition — the ad-hoc kernel mitigation §6.4
	// compares return retpolines against.
	RSBRefillCost int64

	// FreqGHz converts cycles to wall-clock time in reports.
	FreqGHz float64
}

// DefaultParams returns parameters loosely calibrated to the paper's
// Skylake testbed (i7-8700K) and its Table 1 thunk measurements.
func DefaultParams() Params {
	return Params{
		BTBEntries:          4096,
		RSBDepth:            16,
		PHTEntries:          16384,
		ICacheSets:          64,
		ICacheWays:          8,
		ICacheLine:          64,
		MispredictPenalty:   18,
		ICacheMissPenalty:   14,
		DirectCallCost:      2,
		CallArgCost:         1,
		ReturnCost:          1,
		IndirectCallCost:    2,
		CondBranchCost:      1,
		RetpolineCost:       21,
		LVIForwardCost:      9,
		FencedRetpolineCost: 42,
		RetRetpolineCost:    16,
		LVIReturnCost:       11,
		FencedRetRetCost:    32,
		CFICheckCost:        3,
		StackProtectorCost:  4,
		SafeStackCost:       1,
		FineIBTCheckCost:    4,
		PACSignCost:         6,
		PACAuthCost:         8,
		VeriFenceCost:       10,
		RSBRefillCost:       34,
		FreqGHz:             3.7,
	}
}

// defenseCosts maps each defense to its Params field: the flat cost of a
// defense that replaces prediction, or what a predicted one adds to the
// dispatch. It is the only place a cost field is named per defense.
func (p *Params) defenseCosts() [ir.NumDefenses]int64 {
	return [ir.NumDefenses]int64{
		ir.DefRetpoline:       p.RetpolineCost,
		ir.DefLVI:             p.LVIForwardCost,
		ir.DefFencedRetpoline: p.FencedRetpolineCost,
		ir.DefRetRetpoline:    p.RetRetpolineCost,
		ir.DefLVIRet:          p.LVIReturnCost,
		ir.DefFencedRetRet:    p.FencedRetRetCost,
		ir.DefLLVMCFI:         p.CFICheckCost,
		ir.DefStackProtector:  p.StackProtectorCost,
		ir.DefSafeStack:       p.SafeStackCost,
		ir.DefFineIBT:         p.FineIBTCheckCost,
		ir.DefPAC:             p.PACSignCost,
		ir.DefPACRet:          p.PACAuthCost,
		ir.DefVeriFence:       p.VeriFenceCost,
	}
}

// Charge is what one defense costs on one edge.
type Charge struct {
	// Cost is the flat cost of the event, or for a predicted row the
	// cost of a correctly predicted dispatch; a mispredict adds
	// MispredictPenalty (and retrains the BTB on a call or jump).
	Cost      int64
	Predicted bool
	// Thunk counts a call or return toward ThunkedCalls/ThunkedRets.
	Thunk bool
}

// Charges holds one Charge row per defense on each edge, derived from the
// ir.DefenseInfo table. A defense on an edge it cannot guard keeps the
// worst-case charge in its own row (a fenced retpoline on calls and
// jumps, a fenced return retpoline on returns, counted as thunked), and
// row ir.NumDefenses holds the same worst case for undefined values.
type Charges struct {
	Call, Ret, Jump [ir.NumDefenses + 1]Charge
}

// row returns the index of def's row in a Charges array.
func row(def ir.Defense) ir.Defense { return min(def, ir.NumDefenses) }

func newCharges(p *Params) Charges {
	cost := p.defenseCosts()
	var c Charges
	for _, e := range []struct {
		edge        ir.Edge
		rows        *[ir.NumDefenses + 1]Charge
		base, worst int64
	}{
		{ir.EdgeCall, &c.Call, p.IndirectCallCost, p.FencedRetpolineCost},
		{ir.EdgeRet, &c.Ret, p.ReturnCost, p.FencedRetRetCost},
		{ir.EdgeJump, &c.Jump, p.IndirectCallCost, p.FencedRetpolineCost},
	} {
		for d := range e.rows {
			info := ir.Defense(d).Info()
			switch {
			case info.Edges&e.edge == 0: // also row NumDefenses: Info guards nothing there
				e.rows[d] = Charge{Cost: e.worst, Thunk: true}
			case info.Predicted:
				e.rows[d] = Charge{Cost: e.base + cost[d], Predicted: true, Thunk: info.Thunk}
			default:
				e.rows[d] = Charge{Cost: cost[d], Thunk: info.Thunk}
			}
		}
	}
	return c
}

// Counters tallies predictor behaviour for diagnostics and tests.
type Counters struct {
	Instructions  int64
	BTBHits       int64
	BTBMisses     int64
	RSBHits       int64
	RSBMisses     int64
	PHTHits       int64
	PHTMisses     int64
	ICacheHits    int64
	ICacheMisses  int64
	DirectCalls   int64
	IndirectCalls int64
	Returns       int64
	ThunkedCalls  int64 // indirect calls through a defense thunk
	ThunkedRets   int64 // returns through a defense thunk
}

// Model is one logical core's worth of microarchitectural state.
// It is not safe for concurrent use.
type Model struct {
	// P holds the parameters New was given. New derives the defense
	// charge rows from it, so later edits to its cost fields do not
	// reach them.
	P      Params
	Cycles int64
	Stats  Counters

	charges Charges

	btb     []int64 // predicted target per slot; 0 = empty
	btbMask int64

	rsb    []int64 // circular return stack
	rsbTop int     // index of most recent entry
	rsbLen int     // valid entries (0..RSBDepth)

	pht     []uint8 // 2-bit saturating counters
	phtMask int64

	// The instruction cache keeps each set's ways in recency order: way 0
	// holds the newest line and the last way the least recently used.
	// A hit moves its line to the front and a miss shifts the set down
	// one way, evicting the last, which is exactly LRU. Invalid ways hold
	// -1, so a cold set fills before it evicts. Tags are stored flat
	// ([set*ways+way]).
	icTags  []int64 // [set*ways+way] line tag, newest first; -1 = invalid
	icWays  int
	icMask  int64
	icShift int // log2(ICacheLine): an aligned line's set is (line >> icShift) & icMask
}

// New returns a Model with cold predictors and caches. It panics when
// p's geometry cannot be simulated: BTBEntries, PHTEntries, ICacheSets
// and ICacheLine must be powers of two (they are used as masks and line
// alignments), and ICacheWays and RSBDepth at least 1.
func New(p Params) *Model {
	for _, g := range []struct {
		name string
		n    int64
	}{
		{"BTBEntries", int64(p.BTBEntries)},
		{"PHTEntries", int64(p.PHTEntries)},
		{"ICacheSets", int64(p.ICacheSets)},
		{"ICacheLine", p.ICacheLine},
	} {
		if g.n < 1 || g.n&(g.n-1) != 0 {
			panic(fmt.Sprintf("cpu: Params.%s = %d is not a power of two", g.name, g.n))
		}
	}
	if p.ICacheWays < 1 {
		panic(fmt.Sprintf("cpu: Params.ICacheWays = %d is below 1", p.ICacheWays))
	}
	if p.RSBDepth < 1 {
		panic(fmt.Sprintf("cpu: Params.RSBDepth = %d is below 1", p.RSBDepth))
	}
	m := &Model{P: p, charges: newCharges(&p)}
	m.btb = make([]int64, p.BTBEntries)
	m.btbMask = int64(p.BTBEntries - 1)
	m.rsb = make([]int64, p.RSBDepth)
	m.pht = make([]uint8, p.PHTEntries)
	m.phtMask = int64(p.PHTEntries - 1)
	m.icWays = p.ICacheWays
	m.icTags = make([]int64, p.ICacheSets*p.ICacheWays)
	for i := range m.icTags {
		m.icTags[i] = -1
	}
	m.icShift = bits.TrailingZeros64(uint64(p.ICacheLine))
	m.icMask = int64(p.ICacheSets - 1)
	return m
}

// Reset clears cycle count and statistics but keeps predictor state, so a
// warmed-up model can be measured.
func (m *Model) Reset() {
	m.Cycles = 0
	m.Stats = Counters{}
}

// ResetAll additionally flushes all predictors and caches.
func (m *Model) ResetAll() {
	m.Reset()
	for i := range m.btb {
		m.btb[i] = 0
	}
	for i := range m.pht {
		m.pht[i] = 0
	}
	m.rsbLen, m.rsbTop = 0, 0
	for i := range m.icTags {
		m.icTags[i] = -1
	}
}

// Micros converts the accumulated cycle count to microseconds.
func (m *Model) Micros() float64 {
	return float64(m.Cycles) / (m.P.FreqGHz * 1e3)
}

// AddStraightline charges pre-aggregated instruction cost without
// touching the cache; the reference loop charges each event's preceding
// run with it and touches a segment's lines with TouchLines.
func (m *Model) AddStraightline(cost, nInstr int64) {
	m.Cycles += cost
	m.Stats.Instructions += nInstr
}

// TouchLines touches n consecutive instruction-cache lines starting at
// base (rounded down to a line boundary).
func (m *Model) TouchLines(base int64, n int) {
	line := base &^ (m.P.ICacheLine - 1)
	if n == 1 {
		m.touchLine(line)
		return
	}
	stride := m.P.ICacheLine
	for i := 0; i < n; i++ {
		m.touchLine(line)
		line += stride
	}
}

// TouchLine touches the single instruction-cache line containing base.
// It is the one-line specialization of TouchLines, skipping the loop
// set-up for the dominant single-line block.
func (m *Model) TouchLine(base int64) {
	m.touchLine(base &^ (m.P.ICacheLine - 1))
}

// touchLine looks line up in its set's recency-ordered ways and moves it
// to the front, filling it in place of the last (least recently used)
// way on a miss. line is already aligned. This plain scan is the
// reference the compiled tier's two-way probe is checked against.
func (m *Model) touchLine(line int64) {
	base := int((line>>m.icShift)&m.icMask) * m.icWays
	tags := m.icTags[base : base+m.icWays]
	w := 0
	for w < len(tags) && tags[w] != line {
		w++
	}
	if w < len(tags) {
		m.Stats.ICacheHits++
	} else {
		m.Stats.ICacheMisses++
		m.Cycles += m.P.ICacheMissPenalty
		w--
	}
	for ; w > 0; w-- {
		tags[w] = tags[w-1]
	}
	tags[0] = line
}

// DirectCall charges a direct call at siteAddr returning to retAddr and
// pushes the return address onto the RSB.
func (m *Model) DirectCall(retAddr int64, args int32) {
	m.Stats.DirectCalls++
	m.Cycles += m.P.DirectCallCost + int64(args)*m.P.CallArgCost
	m.pushRSB(retAddr)
}

// IndirectCall charges an indirect call at siteAddr to targetAddr under
// the given defense, pushes retAddr, and trains the BTB when the defense
// keeps the dispatch predicted.
func (m *Model) IndirectCall(siteAddr, targetAddr, retAddr int64, args int32, def ir.Defense) {
	m.Stats.IndirectCalls++
	m.Cycles += int64(args) * m.P.CallArgCost
	c := &m.charges.Call[row(def)]
	if c.Thunk {
		m.Stats.ThunkedCalls++
	}
	if c.Predicted {
		m.dispatch(siteAddr, targetAddr, c.Cost)
	} else {
		m.Cycles += c.Cost
	}
	m.pushRSB(retAddr)
}

// dispatch charges a BTB-predicted indirect branch: cost on a hit; cost
// plus the mispredict penalty, and a BTB update, on a miss.
func (m *Model) dispatch(siteAddr, targetAddr, cost int64) {
	slot := siteAddr & m.btbMask
	if m.btb[slot] == targetAddr {
		m.Stats.BTBHits++
		m.Cycles += cost
	} else {
		m.Stats.BTBMisses++
		m.Cycles += cost + m.P.MispredictPenalty
		m.btb[slot] = targetAddr
	}
}

// Return charges a return to retAddr under the given defense and pops the
// RSB.
func (m *Model) Return(retAddr int64, def ir.Defense) {
	m.Stats.Returns++
	predicted, ok := m.popRSB()
	c := &m.charges.Ret[row(def)]
	if c.Thunk {
		m.Stats.ThunkedRets++
	}
	switch {
	case !c.Predicted:
		m.Cycles += c.Cost
	case ok && predicted == retAddr:
		m.Stats.RSBHits++
		m.Cycles += c.Cost
	default:
		m.Stats.RSBMisses++
		m.Cycles += c.Cost + m.P.MispredictPenalty
	}
}

// RefillRSB overwrites every RSB entry with a benign trampoline address
// and charges the stuffing cost — the kernel's ad-hoc mitigation against
// userspace RSB poisoning on privilege transitions (§6.4).
func (m *Model) RefillRSB() {
	const benign = 0x7fffff00
	for i := 0; i < m.P.RSBDepth; i++ {
		m.pushRSB(benign)
	}
	// Refilling leaves the RSB without the caller's real frames, so the
	// next returns mispredict (benign, not attacker-controlled).
	m.rsbLen = m.P.RSBDepth
	m.Cycles += m.P.RSBRefillCost
}

// CondBranch charges a conditional branch at addr that resolves to taken,
// updating the PHT.
func (m *Model) CondBranch(addr int64, taken bool) {
	slot := addr & m.phtMask
	ctr := m.pht[slot]
	predictTaken := ctr >= 2
	if predictTaken == taken {
		m.Stats.PHTHits++
		m.Cycles += m.P.CondBranchCost
	} else {
		m.Stats.PHTMisses++
		m.Cycles += m.P.CondBranchCost + m.P.MispredictPenalty
	}
	if taken && ctr < 3 {
		m.pht[slot] = ctr + 1
	} else if !taken && ctr > 0 {
		m.pht[slot] = ctr - 1
	}
}

// IndirectJump charges a jump-table dispatch (or other indirect jump) at
// siteAddr to targetAddr. Indirect jumps use the BTB like indirect calls
// but push nothing, and never count as thunked.
func (m *Model) IndirectJump(siteAddr, targetAddr int64, def ir.Defense) {
	c := &m.charges.Jump[row(def)]
	if c.Predicted {
		m.dispatch(siteAddr, targetAddr, c.Cost)
	} else {
		m.Cycles += c.Cost
	}
}

func (m *Model) pushRSB(ret int64) {
	m.rsbTop++
	if m.rsbTop == m.P.RSBDepth {
		m.rsbTop = 0
	}
	m.rsb[m.rsbTop] = ret
	if m.rsbLen < m.P.RSBDepth {
		m.rsbLen++
	}
}

func (m *Model) popRSB() (int64, bool) {
	if m.rsbLen == 0 {
		return 0, false
	}
	v := m.rsb[m.rsbTop]
	m.rsbTop--
	if m.rsbTop < 0 {
		m.rsbTop = m.P.RSBDepth - 1
	}
	m.rsbLen--
	return v, true
}

// --- Speculation introspection and poisoning (attack-simulator API) ---

// PredictIndirect returns the BTB's current prediction for an indirect
// branch at addr (0 if the slot is empty).
func (m *Model) PredictIndirect(addr int64) int64 {
	return m.btb[addr&m.btbMask]
}

// PoisonBTB writes target into the BTB slot that branches at victimAddr
// index — the Spectre V2 training primitive. The attacker only needs an
// address that aliases to the same slot.
func (m *Model) PoisonBTB(victimAddr, target int64) {
	m.btb[victimAddr&m.btbMask] = target
}

// PredictReturn returns the RSB's current top-of-stack prediction.
func (m *Model) PredictReturn() (int64, bool) {
	if m.rsbLen == 0 {
		return 0, false
	}
	return m.rsb[m.rsbTop], true
}

// PoisonRSB overwrites the top n RSB entries with target — the Ret2spec
// training primitive.
func (m *Model) PoisonRSB(target int64, n int) {
	for i := 0; i < n; i++ {
		m.pushRSB(target)
	}
}
