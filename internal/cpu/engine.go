package cpu

// EngineState is a borrowed view of a Model's predictor and cache state,
// laid out for an execution engine that inlines the accounting instead of
// calling the Model's methods per event. The slices alias the Model's
// own arrays, so predictor updates land directly in the model; the
// scalars (Cycles, Stats, RSB cursor) are evolved locally by the engine
// and written back with EngineRestore.
//
// The contract is exclusive use: between EngineView and EngineRestore the
// Model's methods must not be called, and the Model is single-owner to
// begin with (it is not safe for concurrent use). An engine that mirrors
// the Model's update rules operation-for-operation is cycle-exact, not
// approximate: Cycles and every Counters field are pure sums, and the
// order-sensitive state (BTB/PHT slots, RSB cursor, the i-cache sets'
// recency order) is updated through the same arrays with the same rules
// in the same sequence.
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

	// ICTags holds each set's ways newest first ([set*ICWays+way]);
	// ICMask+1 is the number of sets.
	ICTags  []int64
	ICWays  int
	ICMask  int64
	ICShift int

	// Charges are the Model's defense charge rows, which the engine
	// reads instead of switching on the defense.
	Charges *Charges
}

// EngineView fills st with a borrowed view of the model's state.
func (m *Model) EngineView(st *EngineState) {
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
	st.ICWays = m.icWays
	st.ICMask = m.icMask
	st.ICShift = m.icShift
	st.Charges = &m.charges
}

// EngineSync refreshes the run-evolved scalars of a view previously
// filled by EngineView (Cycles, Stats, RSB cursor) without re-copying
// geometry: the predictor arrays, their masks, the cost parameters and
// the charge rows are fixed when the Model is constructed, so a caller
// that keeps the same Model can re-borrow with this cheaper call.
func (m *Model) EngineSync(st *EngineState) {
	st.Cycles = m.Cycles
	st.Stats = m.Stats
	st.RSBTop = m.rsbTop
	st.RSBLen = m.rsbLen
}

// EngineRestore writes the engine-evolved scalars back into the model,
// ending the borrow started by EngineView. Slice-backed state (BTB, PHT,
// RSB entries, i-cache tags) was mutated in place and needs no
// copy-back.
func (m *Model) EngineRestore(st *EngineState) {
	m.Cycles = st.Cycles
	m.Stats = st.Stats
	m.rsbTop = st.RSBTop
	m.rsbLen = st.RSBLen
}
