package ir

import (
	"fmt"
	"slices"
	"strings"
)

// VerifyError is the typed error Verify returns: the list of structural
// violations found, one string per violation. Callers that wrap it must
// use %w so errors.As can distinguish a malformed module from an
// environmental failure.
type VerifyError struct {
	Violations []string
}

func (e *VerifyError) Error() string {
	return "ir: verify: " + strings.Join(e.Violations, "; ")
}

// VerifyOptions configures Verify.
type VerifyOptions struct {
	// AllowUnknownCallees skips checking that direct-call targets exist
	// in the module. Useful for partially built modules in tests.
	AllowUnknownCallees bool
}

// Verify checks module-level structural invariants:
//
//   - every function has an entry block and unique block names;
//   - every block ends in exactly one terminator, at the end;
//   - branch targets name existing blocks in the same function;
//   - register operands are within the function's register count;
//   - direct-call and compare targets name existing functions;
//   - site IDs are unique module-wide and within the allocator bound;
//   - every site's Orig lies in [1, NextSiteID());
//   - switches have at least one target;
//   - every defense is defined and guards its instruction's edge
//     (Instr.DefenseFits).
//
// It returns all violations joined into a single error, or nil. A
// module that verifies costs no map and no string formatting: sites are
// tracked in dense tables and violation text is built only when one is
// reported.
func Verify(m *Module, opts VerifyOptions) error {
	var errs []string
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// A call site's ID is shared between the OpResolve that loads the
	// function pointer and the OpICall that consumes it, so resolve
	// sites and call sites are tracked in separate namespaces.
	callSites := newSiteTable(m.NextSiteID())
	resolveSites := newSiteTable(m.NextSiteID())
	var order []int32
	for fi := range m.Funcs {
		order = verifyFunc(m, fi, opts, callSites, resolveSites, order, report)
		if len(errs) > 64 {
			errs = append(errs, "... (truncated)")
			break
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &VerifyError{Violations: errs}
}

// sitePos locates an instruction by function, block and instruction
// index. fn holds the function index plus one, so the zero value means
// the site has not been seen.
type sitePos struct{ fn, blk, ins int32 }

// siteTable records where each site ID was last seen. IDs in
// [1, NextSiteID()) index a dense slice. Any other ID goes to a map
// made only when one turns up, which only a malformed module does.
type siteTable struct {
	dense []sitePos
	other map[SiteID]sitePos
}

func newSiteTable(bound SiteID) *siteTable {
	return &siteTable{dense: make([]sitePos, max(bound, 1))}
}

// swap records p as the latest use of id and returns the previous one.
func (t *siteTable) swap(id SiteID, p sitePos) (prev sitePos) {
	if id > 0 && int(id) < len(t.dense) {
		prev, t.dense[id] = t.dense[id], p
		return prev
	}
	if t.other == nil {
		t.other = make(map[SiteID]sitePos)
	}
	prev, t.other[id] = t.other[id], p
	return prev
}

// verifyFunc checks function fi. order is scratch space for the block
// name index, returned for reuse by the next function.
func verifyFunc(m *Module, fi int, opts VerifyOptions, callSites, resolveSites *siteTable, order []int32, report func(string, ...any)) []int32 {
	f := m.Funcs[fi]
	if len(f.Blocks) == 0 {
		report("%s: no blocks", f.Name)
		return order
	}
	// Block indices stably sorted by name: a binary search for a name
	// lands on the lowest-indexed block carrying it, so a block is a
	// duplicate when that is not itself.
	order = order[:0]
	for i := range f.Blocks {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return strings.Compare(f.Blocks[a].Name, f.Blocks[b].Name)
	})
	first := func(name string) int32 {
		k, ok := slices.BinarySearchFunc(order, name, func(bi int32, name string) int {
			return strings.Compare(f.Blocks[bi].Name, name)
		})
		if !ok {
			return -1
		}
		return order[k]
	}
	for i, b := range f.Blocks {
		if first(b.Name) != int32(i) {
			report("%s: duplicate block %q", f.Name, b.Name)
		}
	}
	checkTarget := func(b *Block, target string) {
		if first(target) < 0 {
			report("%s.%s: branch to unknown block %q", f.Name, b.Name, target)
		}
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			report("%s.%s: empty block", f.Name, b.Name)
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					report("%s.%s: block does not end in a terminator (ends in %s)", f.Name, b.Name, in.Op)
				} else {
					report("%s.%s[%d]: terminator %s in mid-block", f.Name, b.Name, i, in.Op)
				}
			}
			switch in.Op {
			case OpBr:
				checkTarget(b, in.Then)
				checkTarget(b, in.Else)
				if !in.UseFlag && (in.Prob < 0 || in.Prob > 1) {
					report("%s.%s[%d]: branch probability %v out of range", f.Name, b.Name, i, in.Prob)
				}
			case OpJmp:
				checkTarget(b, in.Then)
			case OpSwitch:
				if len(in.Targets) == 0 {
					report("%s.%s[%d]: switch with no targets", f.Name, b.Name, i)
				}
				for _, t := range in.Targets {
					checkTarget(b, t)
				}
			case OpCall:
				if !opts.AllowUnknownCallees && m.Func(in.Callee) == nil {
					report("%s.%s[%d]: call to unknown function %q", f.Name, b.Name, i, in.Callee)
				}
			case OpCmpFn:
				if !opts.AllowUnknownCallees && m.Func(in.Callee) == nil {
					report("%s.%s[%d]: cmpfn against unknown function %q", f.Name, b.Name, i, in.Callee)
				}
			}
			if !in.DefenseFits() {
				report("%s.%s[%d]: %s cannot carry defense %v", f.Name, b.Name, i, in.Op, in.Defense)
			}
			switch in.Op {
			case OpResolve, OpCmpFn, OpICall, OpIJump:
				if in.Reg < 0 || int(in.Reg) >= f.NumRegs {
					report("%s.%s[%d]: register r%d out of range (function has %d)", f.Name, b.Name, i, in.Reg, f.NumRegs)
				}
			}
			if in.Op == OpCall || in.Op == OpICall || in.Op == OpResolve {
				if in.Site == 0 {
					report("%s.%s[%d]: %s without a site ID", f.Name, b.Name, i, in.Op)
				} else {
					sites := callSites
					if in.Op == OpResolve {
						sites = resolveSites
					}
					if prev := sites.swap(in.Site, sitePos{int32(fi) + 1, int32(bi), int32(i)}); prev.fn != 0 {
						pf := m.Funcs[prev.fn-1]
						report("%s.%s[%d]: site %d reused (first at %s.%s[%d])", f.Name, b.Name, i, in.Site, pf.Name, pf.Blocks[prev.blk].Name, prev.ins)
					}
					if in.Site >= m.NextSiteID() {
						report("%s.%s[%d]: site %d beyond allocator bound %d", f.Name, b.Name, i, in.Site, m.NextSiteID())
					}
					if in.Orig == 0 {
						report("%s.%s[%d]: site %d without Orig", f.Name, b.Name, i, in.Site)
					} else if in.Orig < 0 || in.Orig >= m.NextSiteID() {
						report("%s.%s[%d]: site %d orig %d outside [1, %d)", f.Name, b.Name, i, in.Site, in.Orig, m.NextSiteID())
					}
				}
			}
		}
	}
	return order
}
