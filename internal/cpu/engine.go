package cpu

// EngineState is a borrowed view of a Model's predictor and cache state,
// laid out for an execution engine that inlines the accounting instead of
// calling the Model's methods per event. The slices alias the Model's
// own arrays, so predictor updates land directly in the model; the
// scalars (Cycles, Stats, RSB cursor, icache tick) are evolved locally
// by the engine and written back with EngineRestore.
//
// The contract is exclusive use: between EngineView and EngineRestore the
// Model's methods must not be called, and the Model is single-owner to
// begin with (it is not safe for concurrent use). An engine that mirrors
// the Model's update rules operation-for-operation is cycle-exact, not
// approximate: Cycles and every Counters field are pure sums, and the
// order-sensitive state (BTB/PHT slots, RSB cursor, LRU stamps) is
// updated through the same arrays with the same rules in the same
// sequence.
type EngineState struct {
	Cycles int64
	Stats  Counters

	BTB     []int64
	BTBMask int64

	RSB      []int64
	RSBTop   int
	RSBLen   int
	RSBDepth int

	PHT     []uint8
	PHTMask int64

	ICTags  []int64
	ICStamp []int64
	ICMRU   []int32
	ICTick  int64
	ICWays  int
	ICMask  int64
	ICShift int

	// Charges are the Model's defense charge rows, which the engine
	// reads instead of switching on the defense.
	Charges *Charges
}

// EngineView fills st with a borrowed view of the model's state. It
// returns false when the model's geometry has no inlinable form (icache
// line size not a power of two, so set indexing needs division); the
// caller must then fall back to the method-call interface.
func (m *Model) EngineView(st *EngineState) bool {
	if m.icShift < 0 {
		return false
	}
	st.Cycles = m.Cycles
	st.Stats = m.Stats
	st.BTB = m.btb
	st.BTBMask = m.btbMask
	st.RSB = m.rsb
	st.RSBTop = m.rsbTop
	st.RSBLen = m.rsbLen
	st.RSBDepth = m.P.RSBDepth
	st.PHT = m.pht
	st.PHTMask = m.phtMask
	st.ICTags = m.icTags
	st.ICStamp = m.icStamp
	st.ICMRU = m.icMRU
	st.ICTick = m.icTick
	st.ICWays = m.icWays
	st.ICMask = m.icMask
	st.ICShift = m.icShift
	st.Charges = &m.charges
	return true
}

// EngineSync refreshes the run-evolved scalars of a view previously
// filled by EngineView (Cycles, Stats, RSB cursor, icache tick) without
// re-copying geometry: the predictor arrays, their masks, the cost
// parameters and the charge rows are fixed when the Model is
// constructed, so a caller that keeps the same Model can re-borrow with
// this cheaper call.
func (m *Model) EngineSync(st *EngineState) {
	st.Cycles = m.Cycles
	st.Stats = m.Stats
	st.RSBTop = m.rsbTop
	st.RSBLen = m.rsbLen
	st.ICTick = m.icTick
}

// EngineRestore writes the engine-evolved scalars back into the model,
// ending the borrow started by EngineView. Slice-backed state (BTB, PHT,
// RSB entries, icache tags/stamps/MRU) was mutated in place and needs no
// copy-back.
func (m *Model) EngineRestore(st *EngineState) {
	m.Cycles = st.Cycles
	m.Stats = st.Stats
	m.rsbTop = st.RSBTop
	m.rsbLen = st.RSBLen
	m.icTick = st.ICTick
}
