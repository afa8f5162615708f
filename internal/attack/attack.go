// Package attack simulates the transient control-flow hijacking attacks
// of the paper's threat model against a (possibly hardened) module, using
// the CPU model's predictor state as the attack surface:
//
//   - Spectre V2: poison the BTB slot a victim indirect branch indexes
//     (any attacker branch aliasing to the same slot suffices) and check
//     whether the CPU's speculative dispatch for the victim lands on the
//     attacker's gadget.
//   - Ret2spec: poison the RSB and check whether a victim return
//     speculates to the gadget.
//   - LVI: inject a value into the faulting load that feeds an indirect
//     branch (or a return address pop) and check whether the transient
//     target is attacker-controlled.
//
// Every verdict is read from the defense's ir.DefenseInfo. A site resists
// predictor poisoning only when its defense guards the site's edge and
// replaces the predicted dispatch (retpolines pin speculation into the
// thunk's capture loop); a defense that keeps the dispatch predicted —
// an architectural check such as FineIBT's SID compare or a PAC
// sign/auth, or an lfence on the target load — leaves the poisoned
// prediction in force. A site resists LVI only when its defense fences
// the target load. A defense on an edge it does not guard, or an
// undefined value, protects nothing.
package attack

import (
	"repro/internal/cpu"
	"repro/internal/ir"
)

// GadgetAddr is the attacker-chosen speculative target used by the
// simulations.
const GadgetAddr = 0x66660000

// Outcome reports one attack attempt.
type Outcome struct {
	Vulnerable bool
	// Reason explains the verdict ("speculates to gadget via poisoned
	// BTB", "retpoline captures speculation", ...).
	Reason string
}

// SpectreV2 attacks an indirect call (edge ir.EdgeCall) or jump-table
// dispatch (ir.EdgeJump) at siteAddr hardened with def.
func SpectreV2(m *cpu.Model, siteAddr int64, edge ir.Edge, def ir.Defense) Outcome {
	m.PoisonBTB(siteAddr, GadgetAddr)
	info := def.Info()
	switch {
	case info.Edges&edge == 0:
		return Outcome{Vulnerable: true, Reason: def.String() + " does not guard this edge"}
	case !info.Predicted:
		// The retpoline replaces the indirect branch with a ret whose
		// RSB entry the thunk itself just planted; the poisoned BTB slot
		// is never consulted.
		return Outcome{Vulnerable: false, Reason: "retpoline captures speculation in thunk loop"}
	case m.PredictIndirect(siteAddr) == GadgetAddr:
		return Outcome{Vulnerable: true, Reason: "speculates to gadget via poisoned BTB"}
	}
	return Outcome{Vulnerable: false, Reason: "BTB slot not attacker-controlled"}
}

// Ret2spec attacks a return hardened with def. depth is how many RSB
// entries the attacker can pollute before the victim return executes.
func Ret2spec(m *cpu.Model, def ir.Defense, depth int) Outcome {
	m.PoisonRSB(GadgetAddr, depth)
	info := def.Info()
	switch {
	case info.Edges&ir.EdgeRet == 0:
		return Outcome{Vulnerable: true, Reason: def.String() + " does not guard returns"}
	case !info.Predicted:
		// The return retpoline places the top of the RSB in a known
		// state before returning, so any poisoning is overwritten.
		return Outcome{Vulnerable: false, Reason: "return retpoline re-pins the RSB top"}
	}
	if tgt, ok := m.PredictReturn(); ok && tgt == GadgetAddr {
		return Outcome{Vulnerable: true, Reason: "speculates to gadget via poisoned RSB"}
	}
	return Outcome{Vulnerable: false, Reason: "RSB top not attacker-controlled"}
}

// LVI attacks the target load of an indirect branch hardened with def:
// the attacker injects GadgetAddr into the faulting load's result.
func LVI(def ir.Defense) Outcome {
	if def.Info().Fenced {
		return Outcome{Vulnerable: false, Reason: "lfence retires the load before the transfer"}
	}
	// Plain retpolines move the target into the thunk via an unfenced
	// load/store; LVI can still inject into it.
	return Outcome{Vulnerable: true, Reason: "unfenced target load accepts injected value"}
}

// RSBScenario distinguishes how an attacker pollutes the RSB for a
// Ret2spec attack against the kernel (§6.4's analysis of RSB refilling).
type RSBScenario int

// The pollution scenarios of §2.2/§6.4.
const (
	// PoisonFromUserspace: the attacker fills the RSB in user mode and
	// relies on the kernel reusing the entries after the transition.
	PoisonFromUserspace RSBScenario = iota
	// PoisonSpeculatively: RSB entries pushed by speculatively executed
	// calls inside the kernel are not reverted on a pipeline flush, so
	// pollution happens after any entry-time refill.
	PoisonSpeculatively
)

func (s RSBScenario) String() string {
	if s == PoisonFromUserspace {
		return "user-mode pollution"
	}
	return "speculative in-kernel pollution"
}

// Ret2specUnderRefill evaluates a Ret2spec attempt against a kernel that
// refills the RSB on privilege transitions instead of hardening returns.
// Refilling defeats user-mode pollution, but — as the paper argues when
// recommending return retpolines — not pollution that happens after the
// refill.
func Ret2specUnderRefill(m *cpu.Model, sc RSBScenario) Outcome {
	// The attacker poisons, then the kernel entry path runs.
	m.PoisonRSB(GadgetAddr, 4)
	if sc == PoisonFromUserspace {
		m.RefillRSB()
	}
	// Victim return executes with no matching frame of its own.
	if tgt, ok := m.PredictReturn(); ok && tgt == GadgetAddr {
		return Outcome{Vulnerable: true, Reason: "poisoned entry survives past the refill point"}
	}
	return Outcome{Vulnerable: false, Reason: "refill replaced the poisoned entries"}
}

// Report tallies, for every indirect branch in a module, which attack
// classes remain viable. It is the per-module security evaluation behind
// Table 11.
type Report struct {
	ICallsSpectreV2 int // indirect calls hijackable via BTB poisoning
	ICallsLVI       int // indirect calls hijackable via LVI
	ReturnsRet2spec int // returns hijackable via RSB poisoning
	ReturnsLVI      int
	IJumpsSpectreV2 int // jump-table dispatches hijackable via BTB
	TotalICalls     int
	TotalReturns    int
	TotalIJumps     int
}

// Evaluate lays the module out and attacks every indirect branch once.
// Boot-only code is skipped, matching the paper's observation that
// boot-time returns are not subject to transient attacks after boot.
func Evaluate(mod *ir.Module) Report {
	mod.Layout(0x1000000, 16)
	m := cpu.New(cpu.DefaultParams())
	var r Report
	for _, f := range mod.Funcs {
		if f.Attrs.Has(ir.AttrBoot) {
			continue
		}
		addr := f.Addr
		f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
			iaddr := addr
			addr += int64(in.ByteSize())
			switch in.Edge() {
			case ir.EdgeCall:
				r.TotalICalls++
				if SpectreV2(m, iaddr, ir.EdgeCall, in.Defense).Vulnerable {
					r.ICallsSpectreV2++
				}
				if LVI(in.Defense).Vulnerable {
					r.ICallsLVI++
				}
			case ir.EdgeRet:
				r.TotalReturns++
				m.DirectCall(iaddr, 0) // give the RSB a frame to poison over
				if Ret2spec(m, in.Defense, 4).Vulnerable {
					r.ReturnsRet2spec++
				}
				if LVI(in.Defense).Vulnerable {
					r.ReturnsLVI++
				}
			case ir.EdgeJump:
				r.TotalIJumps++
				if SpectreV2(m, iaddr, ir.EdgeJump, in.Defense).Vulnerable {
					r.IJumpsSpectreV2++
				}
			}
		})
	}
	return r
}
