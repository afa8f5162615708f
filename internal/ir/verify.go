package ir

import (
	"fmt"
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
//   - switches have at least one target.
//
// It returns all violations joined into a single error, or nil.
func Verify(m *Module, opts VerifyOptions) error {
	var errs []string
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// A call site's ID is shared between the OpResolve that loads the
	// function pointer and the OpICall that consumes it, so resolve
	// sites and call sites are tracked in separate namespaces.
	callSites := make(map[SiteID]string)
	resolveSites := make(map[SiteID]string)
	for _, f := range m.Funcs {
		verifyFunc(m, f, opts, callSites, resolveSites, report)
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

func verifyFunc(m *Module, f *Function, opts VerifyOptions, callSites, resolveSites map[SiteID]string, report func(string, ...any)) {
	if len(f.Blocks) == 0 {
		report("%s: no blocks", f.Name)
		return
	}
	names := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if names[b.Name] {
			report("%s: duplicate block %q", f.Name, b.Name)
		}
		names[b.Name] = true
	}
	checkTarget := func(b *Block, target string) {
		if !names[target] {
			report("%s.%s: branch to unknown block %q", f.Name, b.Name, target)
		}
	}
	for _, b := range f.Blocks {
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
					if prev, dup := sites[in.Site]; dup {
						report("%s.%s[%d]: site %d reused (first at %s)", f.Name, b.Name, i, in.Site, prev)
					}
					sites[in.Site] = fmt.Sprintf("%s.%s[%d]", f.Name, b.Name, i)
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
}
