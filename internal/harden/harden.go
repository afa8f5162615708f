// Package harden applies transient control-flow defenses to the indirect
// branches of a module, mirroring §6 of the paper:
//
//   - retpolines for indirect calls (Spectre V2),
//   - return retpolines for returns (Ret2spec / RSB poisoning),
//   - LVI-CFI fences for both edges (Load Value Injection),
//   - a combined "fenced retpoline" when retpolines and LVI-CFI are both
//     requested (the two defenses instrument the same code sequence and
//     are otherwise incompatible — Listing 7), and
//   - jump-table disabling, lowering switch dispatch to compare chains
//     (the default LLVM behaviour when retpolines or LVI are enabled).
//
// Sites that originate from inline assembly cannot be rewritten by the
// compiler and remain vulnerable; the pass counts them (Table 11).
package harden

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/resilience"
)

// Config selects which defenses to enforce. The zero value applies
// nothing.
type Config struct {
	// Retpolines hardens indirect calls and jumps against Spectre V2.
	Retpolines bool
	// RetRetpolines hardens returns against RSB poisoning (Ret2spec).
	RetRetpolines bool
	// LVICFI fences the target loads of indirect calls and returns
	// against Load Value Injection.
	LVICFI bool

	// Non-transient defenses (Table 1's cheap rows). They are measured
	// for completeness and compose with nothing here: the pass applies
	// them only where no transient defense claims the same edge.
	LLVMCFI        bool // forward-edge type-set checks
	StackProtector bool // stack canaries on returns
	SafeStack      bool // separate return stack

	// Post-2021 hardware-assisted backends. They yield to the transient
	// thunks above when both claim an edge (a retpolined site needs no
	// landing-pad check), and otherwise add a cheap check to a normally
	// predicted dispatch.
	//
	// FineIBT places a coarse IBT landing pad with a per-site SID
	// compare at every indirect-call target (forward edge only).
	FineIBT bool
	// PACCFI signs function pointers on the call side and authenticates
	// return addresses (Camouflage-style ARM pointer authentication) —
	// both edges, with the forward cost on the *call*, not the branch.
	PACCFI bool
	// VeriFence fences only the indirect branches the IR verifier
	// cannot prove safe (ir.ProvableSites); provable sites deliberately
	// stay bare, and jump tables are fenced in place instead of lowered.
	VeriFence bool

	// RSBRefill enables the kernel's ad-hoc RSB-stuffing mitigation on
	// privilege transitions instead of hardening each return (§6.4).
	// It rewrites no instructions; the execution engine charges the
	// refill at syscall entry.
	RSBRefill bool
}

// Any reports whether at least one instruction-rewriting defense is
// enabled.
func (c Config) Any() bool {
	return c.Retpolines || c.RetRetpolines || c.LVICFI ||
		c.LLVMCFI || c.StackProtector || c.SafeStack ||
		c.FineIBT || c.PACCFI || c.VeriFence
}

// String names the configuration the way the paper's tables do.
func (c Config) String() string {
	switch {
	case c.Retpolines && c.RetRetpolines && c.LVICFI:
		return "all-defenses"
	case c.Retpolines && c.LVICFI:
		return "retpolines+lvi-cfi"
	case c.Retpolines && c.RetRetpolines:
		return "retpolines+ret-retpolines"
	case c.Retpolines:
		return "retpolines"
	case c.RetRetpolines:
		return "ret-retpolines"
	case c.LVICFI:
		return "lvi-cfi"
	case c.FineIBT && c.PACCFI:
		return "fineibt+pac-cfi"
	case c.FineIBT:
		return "fineibt"
	case c.PACCFI:
		return "pac-cfi"
	case c.VeriFence:
		return "verifence"
	case c.LLVMCFI:
		return "llvm-cfi"
	case c.StackProtector:
		return "stackprotector"
	case c.SafeStack:
		return "safestack"
	case c.RSBRefill:
		return "rsb-refill"
	default:
		return "none"
	}
}

// ForwardDefense returns the thunk applied to a rewriteable indirect call
// under this configuration.
func (c Config) ForwardDefense() ir.Defense {
	switch {
	case c.Retpolines && c.LVICFI:
		return ir.DefFencedRetpoline
	case c.Retpolines:
		return ir.DefRetpoline
	case c.LVICFI:
		return ir.DefLVI
	case c.FineIBT:
		return ir.DefFineIBT
	case c.PACCFI:
		return ir.DefPAC
	case c.LLVMCFI:
		return ir.DefLLVMCFI
	case c.VeriFence:
		// Per-site: unprovable sites get the fence; ir.ProvableSites
		// decides which provable sites stay bare (Apply/CheckInvariants
		// recompute the same set).
		return ir.DefVeriFence
	default:
		return ir.DefNone
	}
}

// BackwardDefense returns the thunk applied to a return.
func (c Config) BackwardDefense() ir.Defense {
	switch {
	case c.RetRetpolines && c.LVICFI:
		return ir.DefFencedRetRet
	case c.RetRetpolines:
		return ir.DefRetRetpoline
	case c.LVICFI:
		return ir.DefLVIRet
	case c.PACCFI:
		return ir.DefPACRet
	case c.StackProtector:
		return ir.DefStackProtector
	case c.SafeStack:
		return ir.DefSafeStack
	default:
		return ir.DefNone
	}
}

// Census summarizes the protection state of a module's forward and
// backward edges (Table 11's statistics).
type Census struct {
	// DefendedICalls is the number of indirect calls rewritten to a
	// defense thunk.
	DefendedICalls int
	// VulnICalls is the number of indirect calls left unprotected
	// (inline-assembly sites the compiler cannot rewrite).
	VulnICalls int
	// ProvenICalls counts indirect calls the VeriFence verifier proved
	// safe and deliberately left bare — protected by proof, not by a
	// thunk, so they are neither defended nor vulnerable.
	ProvenICalls int
	// VulnIJumps is the number of indirect jumps still emitted (jump
	// tables that could not be lowered plus assembly jumps).
	VulnIJumps int
	// DefendedReturns / VulnReturns tally backward edges; boot-only
	// returns are counted as BootReturns and excluded from VulnReturns
	// since they never execute after boot.
	DefendedReturns int
	VulnReturns     int
	BootReturns     int
	// LoweredJumpTables counts switches converted to compare chains.
	LoweredJumpTables int
	// FencedJumpTables counts jump tables kept as tables behind a
	// VeriFence lfence instead of being lowered.
	FencedJumpTables int
}

// Apply instruments the module in place and returns the census. The
// hardening also grows each thunked site: a retpoline call sequence is
// larger than a bare indirect call, which the size accounting of
// Table 12 must see.
func Apply(mod *ir.Module, cfg Config) (*Census, error) {
	if mod == nil {
		return nil, fmt.Errorf("harden: nil module")
	}
	fwd, bwd := cfg.ForwardDefense(), cfg.BackwardDefense()
	var prov map[ir.SiteID]bool
	if fwd == ir.DefVeriFence {
		prov = ir.ProvableSites(mod, 0)
	}
	c := &Census{}
	for _, f := range mod.Funcs {
		boot := f.Attrs.Has(ir.AttrBoot)
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			switch in.Op {
			case ir.OpICall:
				if in.Asm {
					c.VulnICalls++
					return
				}
				if fwd == ir.DefVeriFence && prov[in.Site] {
					// The verifier proved this site; no fence needed.
					in.Defense = ir.DefNone
					c.ProvenICalls++
					return
				}
				in.Defense = fwd
				if fwd != ir.DefNone {
					c.DefendedICalls++
					in.Size = fwd.Info().Bytes
				} else {
					c.VulnICalls++
				}
			case ir.OpRet:
				if in.Asm {
					c.VulnReturns++
					return
				}
				if boot {
					c.BootReturns++
					return
				}
				in.Defense = bwd
				if bwd != ir.DefNone {
					c.DefendedReturns++
					in.Size = bwd.Info().Bytes
				} else {
					c.VulnReturns++
				}
			case ir.OpSwitch:
				if !in.JumpTable {
					return
				}
				if in.Asm {
					c.VulnIJumps++
					return
				}
				if cfg.Retpolines || cfg.LVICFI {
					in.JumpTable = false
					c.LoweredJumpTables++
					// A compare chain is larger than a table dispatch.
					in.Size = int32(ir.DefaultInstrSize * (1 + len(in.Targets)))
				} else if fwd == ir.DefVeriFence {
					// A data-driven index is never provable; fence the
					// dispatch in place instead of lowering the table.
					in.Defense = ir.DefVeriFence
					in.Size = ir.DefVeriFence.Info().Bytes
					c.FencedJumpTables++
				} else {
					c.VulnIJumps++
				}
			}
		})
	}
	return c, nil
}

// CheckInvariants verifies PIBE's safety invariant on an already-hardened
// module: every surviving indirect branch the compiler can rewrite
// carries exactly the defense the configuration demands. Optimization
// passes may *eliminate* indirect branches, never *expose* them — a
// rewriteable indirect call without the forward thunk, a post-boot return
// without the backward thunk, or an unlowered jump table under
// retpolines/LVI means a transformation (or a miscompile) dropped a
// hardening site. The first violation is returned as a
// resilience.FaultError of KindUnhardenedSite naming the site; nil means
// the module upholds the invariant.
//
// jumpSwitches relaxes the forward-edge check: under the JumpSwitches
// baseline the build deliberately leaves indirect calls bare for the
// runtime promotion hook, so only backward edges and jump tables are
// enforced.
func CheckInvariants(mod *ir.Module, cfg Config, jumpSwitches bool) error {
	if mod == nil {
		return resilience.Faultf(resilience.PhaseBuild, resilience.KindConfig, "harden", "nil module")
	}
	fwdCfg := cfg.ForwardDefense()
	fwd, bwd := fwdCfg, cfg.BackwardDefense()
	if jumpSwitches {
		fwd = ir.DefNone
	}
	// VeriFence's demand is per-site: ProvableSites is a pure function of
	// the module, so recomputing it here reproduces exactly the set Apply
	// consulted (unless an optimization pass broke a site's provability
	// after hardening — which is precisely the invariant violation this
	// check exists to catch).
	var prov map[ir.SiteID]bool
	if fwd == ir.DefVeriFence {
		prov = ir.ProvableSites(mod, 0)
	}
	var violation *resilience.FaultError
	for _, f := range mod.Funcs {
		if violation != nil {
			break
		}
		boot := f.Attrs.Has(ir.AttrBoot)
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			if violation != nil {
				return
			}
			site := fmt.Sprintf("%s/%s[%d]", f.Name, b.Name, i)
			switch in.Op {
			case ir.OpICall:
				want := fwd
				if fwd == ir.DefVeriFence && prov[in.Site] {
					want = ir.DefNone
				}
				if !in.Asm && in.Defense != want {
					violation = resilience.Faultf(resilience.PhaseBuild, resilience.KindUnhardenedSite, site,
						"indirect call carries %v, config demands %v", in.Defense, want)
				}
			case ir.OpRet:
				if !in.Asm && !boot && in.Defense != bwd {
					violation = resilience.Faultf(resilience.PhaseBuild, resilience.KindUnhardenedSite, site,
						"return carries %v, config demands %v", in.Defense, bwd)
				}
			case ir.OpSwitch:
				if in.JumpTable && !in.Asm && (cfg.Retpolines || cfg.LVICFI) {
					violation = resilience.Faultf(resilience.PhaseBuild, resilience.KindUnhardenedSite, site,
						"jump table not lowered under %s", cfg)
				}
				// Jump-table fencing is demanded even under jumpSwitches:
				// the baseline leaves *calls* bare for runtime promotion,
				// never table dispatch.
				if in.JumpTable && !in.Asm && fwdCfg == ir.DefVeriFence &&
					!(cfg.Retpolines || cfg.LVICFI) && in.Defense != ir.DefVeriFence {
					violation = resilience.Faultf(resilience.PhaseBuild, resilience.KindUnhardenedSite, site,
						"jump table not fenced under %s", cfg)
				}
			}
		})
	}
	if violation != nil {
		return violation
	}
	return nil
}

// CollectCensus recomputes the census of an already-hardened module
// without modifying it, given the configuration it was hardened with.
func CollectCensus(mod *ir.Module, cfg Config) *Census {
	var prov map[ir.SiteID]bool
	if cfg.ForwardDefense() == ir.DefVeriFence {
		prov = ir.ProvableSites(mod, 0)
	}
	c := &Census{}
	for _, f := range mod.Funcs {
		boot := f.Attrs.Has(ir.AttrBoot)
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			switch in.Op {
			case ir.OpICall:
				switch {
				case in.Defense != ir.DefNone:
					c.DefendedICalls++
				case !in.Asm && prov[in.Site]:
					c.ProvenICalls++
				default:
					c.VulnICalls++
				}
			case ir.OpRet:
				switch {
				case in.Defense != ir.DefNone:
					c.DefendedReturns++
				case boot:
					c.BootReturns++
				default:
					c.VulnReturns++
				}
			case ir.OpSwitch:
				switch {
				case in.JumpTable && in.Defense == ir.DefVeriFence:
					c.FencedJumpTables++
				case in.JumpTable:
					c.VulnIJumps++
				case cfg.Retpolines || cfg.LVICFI:
					c.LoweredJumpTables++
				}
			}
		})
	}
	return c
}
