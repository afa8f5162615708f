package cpu

import "testing"

// TestEngineStateMatchesModel pins the EngineView/EngineSync/
// EngineRestore borrow protocol the threaded-code engine relies on: the
// view's slices alias the model's own arrays (a predictor update
// through the view is a predictor update of the model), the scalars
// round-trip through Restore, and Sync refreshes exactly the scalars a
// model method may have evolved between runs.
func TestEngineStateMatchesModel(t *testing.T) {
	m := New(DefaultParams())

	// Evolve some state through the method interface first.
	m.DirectCall(0x1000, 2)
	m.IndirectCall(0x2000, 0x3000, 0x2008, 1, 0)
	m.CondBranch(0x4000, true)
	m.TouchLines(0x5000, 3)
	m.Return(0x2008, 0)

	var st EngineState
	m.EngineView(&st)
	if st.Cycles != m.Cycles || st.Stats != m.Stats {
		t.Fatalf("view scalars diverge: cycles %d vs %d", st.Cycles, m.Cycles)
	}
	if int64(1)<<st.ICShift != m.P.ICacheLine || st.ICMask != int64(m.P.ICacheSets-1) {
		t.Fatalf("view geometry inconsistent: shift %d mask %d for %d sets of %d-byte lines",
			st.ICShift, st.ICMask, m.P.ICacheSets, m.P.ICacheLine)
	}
	if len(st.ICTags) != int(st.ICMask+1)*st.ICWays {
		t.Fatalf("icache tags inconsistent: %d tags, %d sets × %d ways",
			len(st.ICTags), st.ICMask+1, st.ICWays)
	}
	if len(st.RSB) != st.RSBDepth {
		t.Fatalf("RSB length %d != depth %d", len(st.RSB), st.RSBDepth)
	}
	if st.Charges != &m.charges {
		t.Fatal("view does not carry the model's charge rows")
	}

	// Writes through the borrowed slices must be writes to the model:
	// saturate a PHT counter via the view, then predict through the
	// method interface and expect a hit.
	slot := int64(0x4000) & st.PHTMask
	st.PHT[slot] = 3
	// Engine-evolved scalars go back through Restore.
	st.Cycles += 123
	st.Stats.Instructions += 7
	m.EngineRestore(&st)
	if m.Cycles != st.Cycles || m.Stats != st.Stats {
		t.Fatalf("restore did not write scalars back: cycles %d vs %d", m.Cycles, st.Cycles)
	}
	before := m.Stats.PHTHits
	m.CondBranch(0x4000, true)
	if m.Stats.PHTHits != before+1 {
		t.Fatal("PHT write through the borrowed view did not reach the model")
	}

	// Sync refreshes only the run-evolved scalars; the borrowed arrays
	// stay the same backing store.
	tags0 := &st.ICTags[0]
	m.AddStraightline(42, 4)
	m.EngineSync(&st)
	if st.Cycles != m.Cycles || st.Stats != m.Stats {
		t.Fatalf("sync missed scalars: cycles %d vs %d", st.Cycles, m.Cycles)
	}
	if &st.ICTags[0] != tags0 {
		t.Fatal("sync re-copied geometry")
	}

	// The RSB cursor round-trips: push through the view's arrays the way
	// the engine does, restore, and the model must predict that return.
	top := st.RSBTop + 1
	if top == st.RSBDepth {
		top = 0
	}
	st.RSB[top] = 0x7700
	st.RSBTop = top
	if st.RSBLen < st.RSBDepth {
		st.RSBLen++
	}
	m.EngineRestore(&st)
	if got, ok := m.PredictReturn(); !ok || got != 0x7700 {
		t.Fatalf("PredictReturn = %#x, %v after view push of 0x7700", got, ok)
	}

	// A line size the model's alignment cannot express is refused when
	// the model is built, not simulated wrongly.
	odd := DefaultParams()
	odd.ICacheLine = 48
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a non-power-of-two line size")
		}
	}()
	New(odd)
}
