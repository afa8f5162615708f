package attack

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/harden"
	"repro/internal/ir"
)

func model() *cpu.Model { return cpu.New(cpu.DefaultParams()) }

func TestSpectreV2Matrix(t *testing.T) {
	cases := []struct {
		def  ir.Defense
		vuln bool
	}{
		{ir.DefNone, true},
		{ir.DefLVI, true}, // LVI-CFI alone keeps the BTB-predicted jump
		{ir.DefRetpoline, false},
		{ir.DefFencedRetpoline, false},
	}
	for _, c := range cases {
		got := SpectreV2(model(), 0x1234, ir.EdgeCall, c.def)
		if got.Vulnerable != c.vuln {
			t.Errorf("SpectreV2(%v) = %v (%s), want vulnerable=%v", c.def, got.Vulnerable, got.Reason, c.vuln)
		}
	}
}

func TestSpectreV2UsesAliasing(t *testing.T) {
	// Poisoning through an aliasing attacker branch (victim + BTB size)
	// must also work: the model indexes by low address bits only.
	m := model()
	stride := int64(m.P.BTBEntries)
	m.PoisonBTB(0x1000+stride, GadgetAddr)
	if m.PredictIndirect(0x1000) != GadgetAddr {
		t.Fatal("aliased poisoning did not reach the victim slot")
	}
}

func TestRet2specMatrix(t *testing.T) {
	cases := []struct {
		def  ir.Defense
		vuln bool
	}{
		{ir.DefNone, true},
		{ir.DefLVIRet, true}, // fences the load, still RSB-predicted
		{ir.DefRetRetpoline, false},
		{ir.DefFencedRetRet, false},
	}
	for _, c := range cases {
		m := model()
		m.DirectCall(0x5000, 0)
		got := Ret2spec(m, c.def, 4)
		if got.Vulnerable != c.vuln {
			t.Errorf("Ret2spec(%v) = %v (%s), want vulnerable=%v", c.def, got.Vulnerable, got.Reason, c.vuln)
		}
	}
}

func TestLVIMatrix(t *testing.T) {
	vuln := []ir.Defense{ir.DefNone, ir.DefRetpoline, ir.DefRetRetpoline}
	safe := []ir.Defense{ir.DefLVI, ir.DefLVIRet, ir.DefFencedRetpoline, ir.DefFencedRetRet}
	for _, d := range vuln {
		if !LVI(d).Vulnerable {
			t.Errorf("LVI(%v) should be vulnerable", d)
		}
	}
	for _, d := range safe {
		if LVI(d).Vulnerable {
			t.Errorf("LVI(%v) should be safe", d)
		}
	}
}

func buildModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule()
	h := ir.NewFunction(m, "h", 0)
	h.ALU(1).Ret()
	f := ir.NewFunction(m, "f", 0)
	f.IndirectCall(0)
	f.Switch([]string{"a"})
	f.NewBlock("a").Ret()
	boot := ir.NewFunction(m, "boot_x", 0)
	boot.SetAttrs(ir.AttrBoot)
	boot.IndirectCall(0)
	boot.Ret()
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func TestEvaluateUnprotectedModule(t *testing.T) {
	m := buildModule(t)
	r := Evaluate(m)
	// Boot code is excluded: 1 icall, 2 returns, 1 jump table.
	if r.TotalICalls != 1 || r.TotalReturns != 2 || r.TotalIJumps != 1 {
		t.Fatalf("census = %+v", r)
	}
	if r.ICallsSpectreV2 != 1 || r.ICallsLVI != 1 {
		t.Errorf("unprotected icall not reported vulnerable: %+v", r)
	}
	if r.ReturnsRet2spec != 2 {
		t.Errorf("unprotected returns not reported vulnerable: %+v", r)
	}
	if r.IJumpsSpectreV2 != 1 {
		t.Errorf("jump table not reported vulnerable: %+v", r)
	}
}

func TestEvaluateHardenedModule(t *testing.T) {
	m := buildModule(t)
	if _, err := harden.Apply(m, harden.Config{Retpolines: true, RetRetpolines: true, LVICFI: true}); err != nil {
		t.Fatalf("harden: %v", err)
	}
	r := Evaluate(m)
	if r.ICallsSpectreV2 != 0 || r.ICallsLVI != 0 {
		t.Errorf("hardened icalls still vulnerable: %+v", r)
	}
	if r.ReturnsRet2spec != 0 || r.ReturnsLVI != 0 {
		t.Errorf("hardened returns still vulnerable: %+v", r)
	}
	// The switch was lowered to a compare chain: no indirect jump left.
	if r.TotalIJumps != 0 {
		t.Errorf("jump table survived hardening: %+v", r)
	}
}

func TestEvaluateAsmSitesStayVulnerable(t *testing.T) {
	m := buildModule(t)
	// Mark the icall as inline assembly; hardening must skip it and the
	// evaluation must still flag it.
	m.Func("f").ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpICall {
			in.Asm = true
		}
	})
	if _, err := harden.Apply(m, harden.Config{Retpolines: true, RetRetpolines: true, LVICFI: true}); err != nil {
		t.Fatalf("harden: %v", err)
	}
	r := Evaluate(m)
	if r.ICallsSpectreV2 != 1 {
		t.Errorf("asm icall not flagged: %+v", r)
	}
}

func TestRetpolineRemainsLVIVulnerableWithoutFence(t *testing.T) {
	// §6.3's motivation: retpolines and LVI-CFI are individually
	// insufficient; only the fenced retpoline stops both attacks.
	m := buildModule(t)
	if _, err := harden.Apply(m, harden.Config{Retpolines: true}); err != nil {
		t.Fatalf("harden: %v", err)
	}
	r := Evaluate(m)
	if r.ICallsSpectreV2 != 0 {
		t.Error("retpoline failed against Spectre V2")
	}
	if r.ICallsLVI != 1 {
		t.Error("plain retpoline should remain LVI-vulnerable")
	}
}

func TestRet2specUnderRefill(t *testing.T) {
	// Refilling stops user-mode pollution...
	m := model()
	if out := Ret2specUnderRefill(m, PoisonFromUserspace); out.Vulnerable {
		t.Errorf("user-mode pollution survived refill: %s", out.Reason)
	}
	// ...but not pollution that happens after the refill point — the
	// §6.4 argument for return retpolines.
	m2 := model()
	if out := Ret2specUnderRefill(m2, PoisonSpeculatively); !out.Vulnerable {
		t.Errorf("speculative pollution should defeat refilling: %s", out.Reason)
	}
}
