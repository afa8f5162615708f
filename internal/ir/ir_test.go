package ir

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func buildSimpleModule(t *testing.T) *Module {
	t.Helper()
	m := NewModule()

	callee := NewFunction(m, "callee", 1)
	callee.ALU(3).Ret()

	caller := NewFunction(m, "caller", 0)
	caller.ALU(2)
	caller.Call("callee", 1)
	site, reg := caller.Resolve()
	caller.ICall(site, reg, 2)
	caller.Ret()

	if err := Verify(m, VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func TestBuilderProducesVerifiableModule(t *testing.T) {
	m := buildSimpleModule(t)
	if got := m.NumFuncs(); got != 2 {
		t.Fatalf("NumFuncs = %d, want 2", got)
	}
	if m.Func("caller") == nil || m.Func("callee") == nil {
		t.Fatal("functions not registered")
	}
	if m.Func("nope") != nil {
		t.Fatal("lookup of unknown function succeeded")
	}
}

func TestModuleStats(t *testing.T) {
	m := buildSimpleModule(t)
	s := CollectStats(m)
	if s.Funcs != 2 {
		t.Errorf("Funcs = %d, want 2", s.Funcs)
	}
	if s.DirectCalls != 1 {
		t.Errorf("DirectCalls = %d, want 1", s.DirectCalls)
	}
	if s.IndirectCalls != 1 {
		t.Errorf("IndirectCalls = %d, want 1", s.IndirectCalls)
	}
	if s.Returns != 2 {
		t.Errorf("Returns = %d, want 2", s.Returns)
	}
	wantInstrs := int64(3 + 1 + 2 + 1 + 1 + 1 + 1) // callee: 3 alu + ret; caller: 2 alu + call + resolve + icall + ret
	if s.Instrs != wantInstrs {
		t.Errorf("Instrs = %d, want %d", s.Instrs, wantInstrs)
	}
	if s.Bytes != wantInstrs*DefaultInstrSize {
		t.Errorf("Bytes = %d, want %d", s.Bytes, wantInstrs*DefaultInstrSize)
	}
}

func TestLayoutAssignsMonotonicAlignedAddresses(t *testing.T) {
	m := buildSimpleModule(t)
	size := m.Layout(0x1000, 16)
	if size <= 0 {
		t.Fatalf("Layout size = %d, want > 0", size)
	}
	var prevEnd int64 = 0x1000
	for _, f := range m.Funcs {
		if f.Addr%16 != 0 {
			t.Errorf("%s: address %#x not 16-aligned", f.Name, f.Addr)
		}
		if f.Addr < prevEnd {
			t.Errorf("%s: address %#x overlaps previous end %#x", f.Name, f.Addr, prevEnd)
		}
		prevEnd = f.Addr + f.ByteSize()
	}
}

func TestVerifyCatchesBranchToUnknownBlock(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "f", 0)
	b.BrProb(0.5, "missing", "entry")
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "unknown block") {
		t.Fatalf("Verify = %v, want unknown-block error", err)
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "f", 0)
	b.Ret()
	b.ALU(1) // after a terminator
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("Verify = %v, want mid-block terminator error", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule()
	NewFunction(m, "f", 0).ALU(2)
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not end in a terminator") {
		t.Fatalf("Verify = %v, want missing-terminator error", err)
	}
}

func TestVerifyCatchesUnknownCallee(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "f", 0)
	b.Call("ghost", 0)
	b.Ret()
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("Verify = %v, want unknown-function error", err)
	}
	if err := Verify(m, VerifyOptions{AllowUnknownCallees: true}); err != nil {
		t.Fatalf("Verify with AllowUnknownCallees: %v", err)
	}
}

func TestVerifyCatchesRegisterOutOfRange(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "f", 0)
	site := m.NewSite()
	b.ICall(site, 7, 0) // register 7 never allocated
	b.Ret()
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Verify = %v, want register-range error", err)
	}
}

func TestVerifyCatchesDuplicateSiteIDs(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "g", 0)
	b.Ret()
	f := NewFunction(m, "f", 0)
	site := f.Call("g", 0)
	f.Func().Entry().Instrs = append(f.Func().Entry().Instrs,
		Instr{Op: OpCall, Callee: "g", Site: site, Orig: site})
	f.Ret()
	err := Verify(m, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "reused") {
		t.Fatalf("Verify = %v, want site-reuse error", err)
	}
}

// TestVerifyReuseMessages pins the verifier's site-reuse violations byte
// for byte: each names the latest earlier use of the ID, IDs beyond the
// allocator bound are still checked for reuse, and resolve sites and call
// sites are separate namespaces.
func TestVerifyReuseMessages(t *testing.T) {
	call := func(site SiteID) Instr { return Instr{Op: OpCall, Callee: "g", Site: site, Orig: 1} }
	for _, c := range []struct {
		name  string
		build func(m *Module)
		want  string
	}{
		{
			name: "triple reuse across functions",
			build: func(m *Module) {
				NewFunction(m, "g", 0).Ret()
				f := NewFunction(m, "f", 0)
				site := f.Call("g", 0)
				f.Func().Entry().Instrs = append(f.Func().Entry().Instrs, call(site))
				f.Ret()
				h := NewFunction(m, "h", 0)
				h.Func().Entry().Instrs = append(h.Func().Entry().Instrs, call(site))
				h.Ret()
			},
			want: "ir: verify: f.entry[1]: site 1 reused (first at f.entry[0]); h.entry[0]: site 1 reused (first at f.entry[1])",
		},
		{
			name: "reuse beyond the allocator bound",
			build: func(m *Module) {
				NewFunction(m, "g", 0).Ret()
				f := NewFunction(m, "f", 0)
				f.Call("g", 0)
				far := m.NextSiteID() + 5
				f.Func().Entry().Instrs = append(f.Func().Entry().Instrs, call(far), call(far))
				f.Ret()
			},
			want: "ir: verify: f.entry[1]: site 7 beyond allocator bound 2; f.entry[2]: site 7 reused (first at f.entry[1]); f.entry[2]: site 7 beyond allocator bound 2",
		},
		{
			name: "separate namespaces",
			build: func(m *Module) {
				f := NewFunction(m, "f", 0)
				site := f.IndirectCall(0)
				f.Func().Entry().Instrs = append(f.Func().Entry().Instrs,
					Instr{Op: OpResolve, Site: site, Orig: site, Reg: 0})
				f.Ret()
			},
			want: "ir: verify: f.entry[2]: site 1 reused (first at f.entry[0])",
		},
	} {
		m := NewModule()
		c.build(m)
		err := Verify(m, VerifyOptions{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Verify = %v\nwant %s", c.name, err, c.want)
		}
	}
}

// TestVerifyAllocationsDoNotScale: verifying a well-formed module costs a
// fixed handful of allocations, not one per site or per block.
func TestVerifyAllocationsDoNotScale(t *testing.T) {
	m := NewModule()
	NewFunction(m, "leaf", 0).Ret()
	for i := 0; i < 100; i++ {
		f := NewFunction(m, "f"+strconv.Itoa(i), 0)
		for j := 0; j < 10; j++ {
			f.Call("leaf", 0)
			f.IndirectCall(0)
			next := "b" + strconv.Itoa(j)
			f.Jmp(next).NewBlock(next)
		}
		f.Ret()
	}
	if err := Verify(m, VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = Verify(m, VerifyOptions{}) }); n > 16 {
		t.Errorf("Verify made %v allocations over %d sites and %d blocks; want a handful", n, m.NextSiteID()-1, 100*11+1)
	}
}

// TestVerifyCatchesOrigOutsideAllocator: a site's Orig must name an
// allocated site, since profiles and the recorder are keyed by it.
func TestVerifyCatchesOrigOutsideAllocator(t *testing.T) {
	for _, orig := range []string{"999999", "-1"} {
		m, err := ParseString(`func leaf (params=0, regs=0)
entry:
  ret

func main (params=0, regs=0) [entry]
entry:
  call @leaf args=0 site=1 orig=` + orig + `
  ret
`)
		if err != nil {
			t.Fatalf("ParseString: %v", err)
		}
		err = Verify(m, VerifyOptions{})
		var ve *VerifyError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), "orig "+orig+" outside [1, 2)") {
			t.Errorf("Verify with orig=%s: %v, want a *VerifyError naming the orig", orig, err)
		}
	}
}

// TestVerifyRejectsMisplacedDefense: a defense must be defined and guard
// its instruction's edge, or the engines would charge a row that
// describes some other edge.
func TestVerifyRejectsMisplacedDefense(t *testing.T) {
	const head = "func h (params=0, regs=0)\nentry:\n  ret\n\nfunc f (params=0, regs=1)\nentry:\n"
	for body, want := range map[string]string{
		"  ret [retpoline]\n":                                              "f.entry[0]: ret cannot carry defense retpoline",
		"  alu [pac-cfi]\n  ret\n":                                         "f.entry[0]: alu cannot carry defense pac-cfi",
		"  call @h args=0 site=1 [fenced-ret-retpoline]\n  ret\n":          "f.entry[0]: call cannot carry defense fenced-ret-retpoline",
		"  resolve r0 site=1\n  icall r0 args=0 site=1 [pac-ret]\n  ret\n": "f.entry[1]: icall cannot carry defense pac-ret",
		"  switch a [table] [lvi-cfi]\na:\n  ret\n":                        "f.entry[0]: switch cannot carry defense lvi-cfi",
		"  switch a [chain] [verifence]\na:\n  ret\n":                      "f.entry[0]: switch cannot carry defense verifence",
	} {
		m, err := ParseString(head + body)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", body, err)
		}
		err = Verify(m, VerifyOptions{})
		var ve *VerifyError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), want) {
			t.Errorf("Verify(%q) = %v, want a *VerifyError containing %q", body, err, want)
		}
	}
	m, err := ParseString(head + "  resolve r0 site=1\n  icall r0 args=0 site=1 [fineibt]\n  switch a [table] [verifence]\na:\n  ret [pac-ret]\n")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if err := Verify(m, VerifyOptions{}); err != nil {
		t.Errorf("defenses on edges they guard rejected: %v", err)
	}
	m.Func("f").Block("a").Instrs[0].Defense = 200
	if err := Verify(m, VerifyOptions{}); err == nil || !strings.Contains(err.Error(), "f.a[0]: ret cannot carry defense defense(200)") {
		t.Errorf("undefined defense: %v", err)
	}
}

func TestAddFuncRejectsDuplicate(t *testing.T) {
	m := NewModule()
	NewFunction(m, "f", 0).Ret()
	err := m.AddFunc(&Function{Name: "f"})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("AddFunc with a duplicate name = %v, want duplicate error", err)
	}
	if m.NumFuncs() != 1 {
		t.Fatalf("failed AddFunc mutated the module: %d funcs", m.NumFuncs())
	}
}

func TestMustAddFuncPanicsOnDuplicate(t *testing.T) {
	m := NewModule()
	NewFunction(m, "f", 0).Ret()
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddFunc with a duplicate name did not panic")
		}
	}()
	NewFunction(m, "f", 0)
}

func TestCloneBlocksIntoRemapsEverything(t *testing.T) {
	m := buildSimpleModule(t)
	caller := m.Func("caller")
	before := m.NextSiteID()
	cloned := m.CloneBlocksInto(caller, "il0.", 10)
	if len(cloned) != len(caller.Blocks) {
		t.Fatalf("cloned %d blocks, want %d", len(cloned), len(caller.Blocks))
	}
	for _, b := range cloned {
		if !strings.HasPrefix(b.Name, "il0.") {
			t.Errorf("block %q missing prefix", b.Name)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpResolve, OpICall:
				if in.Reg < 10 {
					t.Errorf("register r%d not shifted", in.Reg)
				}
				if in.Site < before {
					t.Errorf("site %d not refreshed (allocator was at %d)", in.Site, before)
				}
				if in.Orig >= before {
					t.Errorf("orig %d should preserve the original site", in.Orig)
				}
			case OpCall:
				if in.Site < before {
					t.Errorf("call site %d not refreshed", in.Site)
				}
			}
		}
	}
	// The original must be untouched.
	if err := Verify(m, VerifyOptions{}); err != nil {
		t.Fatalf("original module corrupted: %v", err)
	}
}

func TestModuleCloneIsDeep(t *testing.T) {
	m := buildSimpleModule(t)
	c := m.Clone()
	c.Func("caller").Entry().Instrs[0].Cycles = 99
	if m.Func("caller").Entry().Instrs[0].Cycles == 99 {
		t.Fatal("Clone shares instruction storage with the original")
	}
	if err := Verify(c, VerifyOptions{}); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if c.NextSiteID() != m.NextSiteID() {
		t.Fatalf("clone allocator = %d, want %d", c.NextSiteID(), m.NextSiteID())
	}
}

// TestCloneBlocksStayApart: a cloned function's blocks share backing
// arrays, so appending to one block must not write into the next, and a
// switch's target list must not be shared with the source.
func TestCloneBlocksStayApart(t *testing.T) {
	m := NewModule()
	b := NewFunction(m, "f", 0)
	b.ALU(2).Switch([]string{"entry", "out"})
	b.NewBlock("out").Ret()
	src := m.Func("f")
	srcText := Print(src)

	cf := m.Clone().Func("f")
	second := Print(&Function{Name: "f", Blocks: cf.Blocks[1:]})
	first := cf.Blocks[0]
	first.Instrs = append(first.Instrs, Instr{Op: OpALU, Cycles: 7})
	if got := Print(&Function{Name: "f", Blocks: cf.Blocks[1:]}); got != second {
		t.Errorf("appending to the clone's first block changed its second:\n%s\nwant\n%s", got, second)
	}
	first.Instrs[2].Targets[0] = "out"
	if got := Print(src); got != srcText {
		t.Errorf("editing the clone changed the source:\n%s\nwant\n%s", got, srcText)
	}
}

func TestPrintRoundsTripKeyFacts(t *testing.T) {
	m := buildSimpleModule(t)
	out := Print(m.Func("caller"))
	for _, want := range []string{"func caller", "entry:", "call @callee args=1", "icall r0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestInstrDefaults(t *testing.T) {
	in := Instr{Op: OpALU}
	if in.ByteSize() != DefaultInstrSize {
		t.Errorf("ByteSize = %d, want %d", in.ByteSize(), DefaultInstrSize)
	}
	if in.Latency() != 1 {
		t.Errorf("Latency = %d, want 1", in.Latency())
	}
	in.Size, in.Cycles = 12, 4
	if in.ByteSize() != 12 || in.Latency() != 4 {
		t.Errorf("overrides not honored: size=%d cycles=%d", in.ByteSize(), in.Latency())
	}
}

func TestOpcodeClassification(t *testing.T) {
	terms := map[Opcode]bool{OpBr: true, OpJmp: true, OpSwitch: true, OpRet: true, OpIJump: true}
	for op := OpALU; op <= OpIJump; op++ {
		if got := op.IsTerminator(); got != terms[op] {
			t.Errorf("%s.IsTerminator() = %v, want %v", op, got, terms[op])
		}
	}
	if !OpCall.IsCall() || !OpICall.IsCall() || OpRet.IsCall() {
		t.Error("IsCall classification wrong")
	}
}

func TestSiteAllocatorNeverRepeats(t *testing.T) {
	m := NewModule()
	seen := make(map[SiteID]bool)
	for i := 0; i < 1000; i++ {
		s := m.NewSite()
		if seen[s] {
			t.Fatalf("site %d repeated", s)
		}
		seen[s] = true
	}
	m.ReserveSites(5000)
	if s := m.NewSite(); s != 5001 {
		t.Fatalf("after ReserveSites(5000), NewSite = %d, want 5001", s)
	}
}

// Property: layout size equals the sum of function sizes plus alignment
// padding, and is invariant under cloning.
func TestLayoutSizePropertyQuick(t *testing.T) {
	f := func(nf uint8, ni uint8) bool {
		n := int(nf%7) + 1
		m := NewModule()
		for i := 0; i < n; i++ {
			b := NewFunction(m, fnName(i), 0)
			b.ALU(int(ni%29) + 1).Ret()
		}
		total := m.Layout(0, 16)
		cloneTotal := m.Clone().Layout(0, 16)
		if total != cloneTotal {
			return false
		}
		var raw int64
		for _, fn := range m.Funcs {
			raw += fn.ByteSize()
		}
		// Padding is bounded by 16 bytes per function.
		return total >= raw && total <= raw+int64(16*n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fnName(i int) string { return "f" + string(rune('a'+i)) }
