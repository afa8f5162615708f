// Attack-demo example: simulate the three transient control-flow attacks
// of the paper's threat model against every defense that guards each
// kind of indirect branch.
//
//	go run ./examples/attack-demo
//
// The microarchitectural model exposes the attacker's primitives —
// poisoning the branch target buffer (Spectre V2), poisoning the return
// stack buffer (Ret2spec), and injecting a value into a faulting target
// load (LVI) — and reports whether speculation reaches the attacker's
// gadget. The defenses listed per edge come from ir.DefenseInfo, so a
// new defense shows up here without an edit.
package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/ir"
)

func main() {
	for _, e := range []struct {
		edge          ir.Edge
		title, attack string
	}{
		{ir.EdgeCall, "indirect call at 0x401000", "Spectre V2"},
		{ir.EdgeRet, "return", "Ret2spec"},
		{ir.EdgeJump, "jump-table dispatch at 0x401000", "Spectre V2"},
	} {
		fmt.Printf("%s:\n", e.title)
		fmt.Printf("  %-22s %-10s %-10s %s\n", "defense", e.attack, "LVI", "why ("+e.attack+")")
		for d := ir.DefNone; d < ir.NumDefenses; d++ {
			if d.Info().Edges&e.edge == 0 {
				continue
			}
			m := cpu.New(cpu.DefaultParams())
			var pred attack.Outcome
			if e.edge == ir.EdgeRet {
				m.DirectCall(0x402000, 0) // the call whose return the attacker hijacks
				pred = attack.Ret2spec(m, d, 4)
			} else {
				pred = attack.SpectreV2(m, 0x401000, e.edge, d)
			}
			lvi := attack.LVI(d)
			fmt.Printf("  %-22s %-10s %-10s %s\n", d, verdict(pred), verdict(lvi), pred.Reason)
		}
		fmt.Println()
	}
	fmt.Println("only the combined fenced retpolines stop every attack — which is")
	fmt.Println("why comprehensive protection needs all defenses at once (§6.3),")
	fmt.Println("and why eliding the branch entirely is so much cheaper.")
}

func verdict(o attack.Outcome) string {
	if o.Vulnerable {
		return "HIJACKED"
	}
	return "safe"
}
