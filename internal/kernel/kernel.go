// Package kernel generates the synthetic Linux-like kernel module the
// evaluation runs against. The real PIBE prototype operates on Linux
// 5.1.0; in this reproduction the kernel is a deterministic, seeded IR
// module whose *shape* matches what PIBE's cost/benefit game depends on:
//
//   - one syscall entry point per LMBench benchmark, with a calibrated
//     per-operation budget of ALU work, direct calls (returns) and
//     indirect calls, derived from Table 2 (baseline latencies) and
//     Table 5 (all-defenses overheads) of the paper;
//   - shared helper layers (fd lookup, permission checks, user copies)
//     so different syscalls exercise common code, which is what makes
//     cross-workload profiles partially transferable (§8.4);
//   - per-subsystem operation tables (file_operations-like) whose
//     indirect call sites have 1..12 observed targets, matching the
//     multi-target distribution of Table 4;
//   - a large body of cold "driver" code that is never executed but
//     contributes the bulk of the static indirect-branch census
//     (Tables 10–12), including boot-only functions and inline-assembly
//     sites (paravirt hypercalls) that hardening cannot rewrite
//     (Table 11).
package kernel

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ir"
)

// PathSpec calibrates one syscall path. Returns counts include the
// returns of indirect-call targets; Cycles is the approximate
// unoptimized, undefended (LTO baseline) cost per operation.
type PathSpec struct {
	Name    string
	Returns int   // dynamic returns per operation
	ICalls  int   // dynamic indirect calls per operation
	Cycles  int64 // target baseline cycles per operation
}

// LMBenchSpecs calibrates the 20 LMBench latency benchmarks of Table 2.
// Cycle targets are the paper's LTO-baseline latencies at 3.7 GHz;
// return/icall densities are chosen so that hardening every branch with
// the combined defense (~31 extra cycles per return, ~40 per indirect
// call) reproduces the per-benchmark overheads of Table 5.
var LMBenchSpecs = []PathSpec{
	{"null", 6, 1, 518},
	{"read", 28, 9, 740},
	{"write", 20, 7, 629},
	{"open", 150, 66, 2886},
	{"stat", 75, 30, 1480},
	{"fstat", 15, 6, 777},
	{"af_unix", 400, 200, 14023},
	{"fork_exit", 4500, 2100, 238900},
	{"fork_exec", 11000, 5200, 586700},
	{"fork_shell", 23000, 10500, 1548800},
	{"pipe", 210, 105, 8436},
	{"select_file", 800, 620, 16169},
	{"select_tcp", 3000, 2700, 34700},
	{"tcp_conn", 1300, 1000, 29637},
	{"udp", 450, 300, 14097},
	{"tcp", 600, 390, 17057},
	{"mmap", 700, 220, 32301},
	{"page_fault", 9, 2, 407},
	{"sig_install", 10, 3, 740},
	{"sig_dispatch", 55, 20, 2479},
}

// Config parameterizes generation.
type Config struct {
	// Seed drives all structural randomness; equal seeds generate
	// byte-identical kernels.
	Seed int64
	// ColdFuncs is the number of never-executed driver functions
	// providing the static branch census. Default 2200.
	ColdFuncs int
	// BootFuncs is the number of boot-only functions. Default 60.
	BootFuncs int
	// AsmICalls is the number of inline-assembly indirect call sites
	// (paravirt hypercalls) hardening cannot rewrite. Default 12.
	AsmICalls int
	// AsmJumpTables is the number of assembly jump tables. Default 5.
	AsmJumpTables int
	// HelperLayers adds that many layers of intermediate helper
	// functions between the subsystem helpers and the leaf primitives:
	// layer k helpers call layer k-1 (layer 0 = the leaves), and the
	// top layer joins the nested-helper pool that prologues, work
	// helpers and impls draw from, so call chains get deeper both
	// statically (census, inliner inheritance) and dynamically. The
	// default 0 keeps the calibrated kernel byte-identical.
	HelperLayers int
}

func (c *Config) fill() {
	if c.ColdFuncs == 0 {
		c.ColdFuncs = 2200
	}
	if c.BootFuncs == 0 {
		c.BootFuncs = 60
	}
	if c.AsmICalls == 0 {
		c.AsmICalls = 12
	}
	if c.AsmJumpTables == 0 {
		c.AsmJumpTables = 5
	}
}

// Site describes one hot (executable) indirect call site: the targets it
// may dispatch to at runtime. Workload flavours weight these targets
// differently.
type Site struct {
	ID      ir.SiteID
	Bench   string // owning benchmark path ("" for shared helpers)
	Targets []string
}

// Kernel is the generated module plus the metadata workloads need.
type Kernel struct {
	Mod *ir.Module
	// Entries maps benchmark name to its syscall entry function.
	Entries map[string]string
	// Sites lists every executable indirect call site in deterministic
	// order.
	Sites []Site
	// Specs are the path specs the kernel was built from.
	Specs []PathSpec
}

type gen struct {
	cfg    Config
	rng    *rand.Rand
	mod    *ir.Module
	kernel *Kernel

	leaves    []string // shared leaf helpers
	prologues []string // shared prologue helpers (fdget, security, ...)
}

// Generate builds the kernel.
func Generate(cfg Config) (*Kernel, error) {
	cfg.fill()
	g := &gen{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		mod: ir.NewModule(),
		kernel: &Kernel{
			Entries: make(map[string]string),
			Specs:   LMBenchSpecs,
		},
	}
	g.kernel.Mod = g.mod

	g.buildLeaves()
	g.buildHelperLayers()
	g.buildPrologues()
	for _, spec := range LMBenchSpecs {
		g.buildSyscall(spec)
	}
	g.buildColdCode()

	sort.Slice(g.kernel.Sites, func(i, j int) bool {
		return g.kernel.Sites[i].ID < g.kernel.Sites[j].ID
	})
	if err := verifyGenerated(g.mod); err != nil {
		return nil, err
	}
	return g.kernel, nil
}

// verifyGenerated runs the IR verifier over a freshly generated module
// and wraps any violation so callers can unwrap the typed
// *ir.VerifyError from the chain.
func verifyGenerated(m *ir.Module) error {
	if err := ir.Verify(m, ir.VerifyOptions{}); err != nil {
		return fmt.Errorf("kernel: generated module does not verify: %w", err)
	}
	return nil
}

// emitWork appends ~cycles worth of mixed ALU/load/store work (average
// latency ≈2.5 per instruction) to the current block.
func (g *gen) emitWork(b *ir.Builder, cycles int64) {
	for cycles > 0 {
		switch g.rng.Intn(4) {
		case 0:
			b.ALU(1)
			cycles--
		case 1:
			b.ALUCycles(3)
			cycles -= 3
		case 2:
			b.Load(4)
			cycles -= 4
		case 3:
			b.Store()
			cycles--
		}
	}
}

// coldBlockInstrs samples the size of a helper's cold error-handling
// path. Real kernel functions are mostly error handling: the cold code
// rarely executes but dominates the function's InlineCost, which is what
// makes Rules 2 and 3 bind the way Table 9 reports. ~5% of helpers are
// big enough (cost > 3000) to trip Rule 3.
func (g *gen) coldBlockInstrs() int {
	r := g.rng.Intn(100)
	switch {
	case r < 30:
		return 0
	case r < 70:
		return 6 + g.rng.Intn(15)
	case r < 95:
		return 30 + g.rng.Intn(60)
	default:
		return 620 + g.rng.Intn(300)
	}
}

// helperBody emits a standard helper body: hot work, a rarely-taken
// branch to a cold error path, optional nested call, return.
func (g *gen) helperBody(b *ir.Builder, hotCycles int64, nested string, nestedArgs int) {
	g.emitWork(b, hotCycles)
	cold := g.coldBlockInstrs()
	if cold == 0 {
		if nested != "" {
			b.Call(nested, nestedArgs)
		}
		b.Ret()
		return
	}
	b.BrProb(0.015, "cold", "hot")
	b.NewBlock("cold")
	b.ALU(cold)
	b.Jmp("out")
	b.NewBlock("hot")
	if nested != "" {
		b.Call(nested, nestedArgs)
	}
	b.Jmp("out")
	b.NewBlock("out")
	b.Ret()
}

// buildLeaves creates the shared leaf helpers every subsystem calls.
func (g *gen) buildLeaves() {
	names := []string{
		"kmalloc", "kfree", "memcpy_to_user", "memcpy_from_user",
		"spin_lock", "spin_unlock", "mutex_lock", "mutex_unlock",
		"rcu_read_lock", "rcu_read_unlock", "atomic_inc", "atomic_dec",
		"capable", "audit_hook", "get_cpu_var", "put_cpu_var",
		"kref_get", "kref_put", "list_add", "list_del",
		"prefetch_page", "flush_tlb_entry", "update_rusage", "account_time",
	}
	// Lock primitives are noinline in real kernels (they must stay
	// out-of-line for lockdep and contention handling); they are hot in
	// every syscall and form the bulk of Table 9's "other" inhibitor
	// category.
	noinline := map[string]bool{
		"spin_lock": true, "spin_unlock": true,
	}
	for _, n := range names {
		b := ir.NewFunction(g.mod, n, g.rng.Intn(2))
		switch {
		case noinline[n]:
			b.SetAttrs(ir.AttrNoInline)
		case g.rng.Intn(3) == 0:
			b.SetAttrs(ir.AttrInlineHint)
		}
		b.SetSubsystem("core")
		g.helperBody(b, int64(3+g.rng.Intn(4)), "", 0)
		g.leaves = append(g.leaves, n)
	}
}

// buildHelperLayers inserts Config.HelperLayers layers of intermediate
// helpers between the leaves and everything that nests through them.
// Layer k's functions each do a little work and call down into layer
// k-1, so a nested call drawn from the top layer unwinds through the
// whole chain — HelperLayers extra dynamic returns per draw, and a
// correspondingly deeper static call graph for the census and the
// inliner's inheritance heuristic to chew on. With HelperLayers == 0
// this draws nothing from the RNG, keeping default generation
// byte-identical to the unscaled kernel.
func (g *gen) buildHelperLayers() {
	const perLayer = 12
	prev := g.leaves
	for layer := 1; layer <= g.cfg.HelperLayers; layer++ {
		names := make([]string, perLayer)
		for j := range names {
			names[j] = fmt.Sprintf("helper_l%d_%d", layer, j)
			b := ir.NewFunction(g.mod, names[j], 1)
			if g.rng.Intn(3) == 0 {
				b.SetAttrs(ir.AttrInlineHint)
			}
			b.SetSubsystem("core")
			g.helperBody(b, int64(2+g.rng.Intn(3)), prev[g.rng.Intn(len(prev))], 1)
		}
		prev = names
	}
	if g.cfg.HelperLayers > 0 {
		// The top layer joins the nested-helper pool; downstream draws
		// then split between direct leaf calls and deep chains.
		g.leaves = append(g.leaves, prev...)
	}
}

// buildPrologues creates the entry-layer helpers (fd lookup, security
// checks) shared by many syscalls — the cross-workload common paths.
func (g *gen) buildPrologues() {
	names := []string{
		"fdget", "fdput", "security_file_permission", "security_task_check",
		"copy_arg_struct", "verify_user_ptr", "enter_syscall_trace",
		"exit_syscall_trace", "lock_task", "unlock_task",
		"cred_check", "ns_lookup", "pid_resolve", "file_pos_read",
		"file_pos_write", "signal_pending_check",
	}
	// The syscall entry/exit trampolines correspond to the kernel's
	// entry assembly and its fixed companions (audit, seccomp): every
	// syscall runs them and none can be inlined, so their hardened
	// returns are a fixed per-syscall residual (why the paper's "null"
	// overhead stays ~42-46% in every optimized configuration).
	for _, n := range []string{"audit_entry", "audit_exit", "seccomp_check"} {
		b := ir.NewFunction(g.mod, n, 1)
		b.SetAttrs(ir.AttrNoInline)
		b.SetSubsystem("entry")
		g.emitWork(b, int64(3+g.rng.Intn(3)))
		b.Ret()
	}
	for _, n := range names {
		b := ir.NewFunction(g.mod, n, 1)
		b.SetSubsystem("entry")
		switch n {
		case "enter_syscall_trace":
			b.SetAttrs(ir.AttrNoInline)
			g.emitWork(b, 4)
			b.Call("audit_entry", 1)
			b.Call("seccomp_check", 1)
			b.Ret()
		case "exit_syscall_trace":
			b.SetAttrs(ir.AttrNoInline)
			g.emitWork(b, 4)
			b.Call("audit_exit", 1)
			b.Ret()
		default:
			nested := ""
			if g.rng.Intn(10) < 3 {
				nested = g.leaves[g.rng.Intn(len(g.leaves))]
			}
			g.helperBody(b, int64(4+g.rng.Intn(5)), nested, 1)
		}
		g.prologues = append(g.prologues, n)
	}
}

// implPool creates the op-table implementation functions for one
// benchmark's subsystem and returns their names. nestPct is the
// percentage of implementations that call a nested leaf, which
// icall-dominated paths keep low so their return budget is not
// overshot.
func (g *gen) implPool(bench string, n, nestPct int) []string {
	names := make([]string, n)
	for i := range names {
		name := fmt.Sprintf("%s_impl_%d", bench, i)
		b := ir.NewFunction(g.mod, name, 1)
		b.SetSubsystem(bench)
		nested := ""
		if g.rng.Intn(100) < nestPct {
			nested = g.leaves[g.rng.Intn(len(g.leaves))]
		}
		g.helperBody(b, int64(2+g.rng.Intn(3)), nested, 1)
		names[i] = name
	}
	return names
}

// siteTargetCount samples the number of targets for an indirect call
// site, approximating the shape of Table 4 (most sites single-target,
// a tail with many).
func (g *gen) siteTargetCount() int {
	r := g.rng.Intn(1000)
	switch {
	case r < 715:
		return 1
	case r < 865:
		return 2
	case r < 915:
		return 3
	case r < 945:
		return 4
	case r < 955:
		return 5
	case r < 972:
		return 6
	default:
		return 7 + g.rng.Intn(6)
	}
}

// addICallSite emits a resolve+icall pair into b and registers its
// target set, drawn from the pool.
func (g *gen) addICallSite(b *ir.Builder, bench string, pool []string) {
	nt := g.siteTargetCount()
	if nt > len(pool) {
		nt = len(pool)
	}
	perm := g.rng.Perm(len(pool))[:nt]
	targets := make([]string, nt)
	for i, p := range perm {
		targets[i] = pool[p]
	}
	site, reg := b.Resolve()
	b.ICall(site, reg, 1)
	g.kernel.Sites = append(g.kernel.Sites, Site{ID: site, Bench: bench, Targets: targets})
}

// buildSyscall constructs sys_<name> and its helpers to meet the spec's
// dynamic-count calibration:
//
//	sys_X:   prologue helpers + work, call do_X, epilogue, ret
//	do_X:    loop executed ~L times; each iteration does D direct calls
//	         to work helpers and dispatches the body's S icall sites once
//	ret counts: P(1.3) + 1 + L*(D*1.3 + S*(1+0.3)) + E ≈ spec.Returns
func (g *gen) buildSyscall(spec PathSpec) {
	bench := spec.Name
	nestPct := 30
	if spec.ICalls > 0 {
		if headroom := (float64(spec.Returns)/float64(spec.ICalls) - 1) * 100; headroom < 30 {
			nestPct = int(headroom)
			if nestPct < 0 {
				nestPct = 0
			}
		}
	}
	pool := g.implPool(bench, 14, nestPct)

	// ALU budget: measured per-dispatch overheads are ≈9 cycles per
	// indirect call (resolve + dispatch + arg + impl body + return) and
	// ≈13 per direct call (call + args + helper body incl. occasional
	// cold-path dips + return).
	direct := spec.Returns - spec.ICalls
	if direct < 0 {
		direct = 0
	}
	alu := spec.Cycles - int64(spec.ICalls)*9 - int64(direct)*13
	if alu < 40 {
		alu = 40
	}

	// Solve the loop structure: S static icall sites dispatched once
	// per iteration over L iterations. The per-iteration body must stay
	// a few KB so one iteration's footprint fits the instruction cache.
	S := spec.ICalls
	if S > 24 {
		S = 24
	}
	if maxS := int(float64(spec.ICalls) * 2000 / float64(alu+1)); S > maxS && maxS >= 1 {
		S = maxS
	}
	if S < 1 {
		S = 1
	}
	L := int(float64(spec.ICalls)/float64(S) + 0.5)
	if L < 1 {
		L = 1
	}
	// Re-derive S so L*S tracks the target count despite rounding.
	S = int(float64(spec.ICalls)/float64(L) + 0.5)
	if S < 1 {
		S = 1
	}
	kPrime := L * S

	P := 4
	E := 2
	if spec.Returns < 20 {
		P, E = 2, 1
	}
	// Direct-call returns still needed once prologue/epilogue/impl
	// returns are accounted. The nesting factors cover the helpers and
	// impls that call a nested leaf.
	residual := float64(spec.Returns) - float64(kPrime)*(1+float64(nestPct)/100) - float64(P)*1.3 - float64(E) - 1
	D := int(residual/(1.3*float64(L)) + 0.5)
	if D < 0 {
		D = 0
	}

	// Work helpers for the loop body. The first one is the path's bulk
	// copy/validation routine: big unrolled code whose InlineCost
	// exceeds Rule 3's threshold — the hot Rule 3 victims of Table 9.
	works := make([]string, D)
	for j := 0; j < D; j++ {
		name := fmt.Sprintf("%s_work_%d", bench, j)
		wb := ir.NewFunction(g.mod, name, 1)
		wb.SetSubsystem(bench)
		if j == 0 && g.rng.Intn(2) == 0 {
			g.emitWork(wb, int64(4+g.rng.Intn(4)))
			wb.BrProb(0.02, "slow", "fast")
			wb.NewBlock("slow")
			wb.ALU(620 + g.rng.Intn(300))
			wb.Jmp("out")
			wb.NewBlock("fast")
			wb.Jmp("out")
			wb.NewBlock("out")
			wb.Ret()
		} else {
			nested := ""
			if g.rng.Intn(10) < 3 {
				nested = g.leaves[g.rng.Intn(len(g.leaves))]
			}
			g.helperBody(wb, int64(3+g.rng.Intn(5)), nested, 1)
		}
		works[j] = name
	}

	prologueALU := int64(25)
	epilogueALU := int64(15)
	bodyALU := (alu - prologueALU - epilogueALU) / int64(L)
	if bodyALU < 4 {
		bodyALU = 4
	}

	// do_X: the loop.
	doName := "do_" + bench
	db := ir.NewFunction(g.mod, doName, 2)
	db.SetSubsystem(bench)
	db.Jmp("loop")
	db.NewBlock("loop")
	g.emitWork(db, bodyALU)
	for j := 0; j < D; j++ {
		db.Call(works[j], 1)
	}
	for s := 0; s < S; s++ {
		g.addICallSite(db, bench, pool)
	}
	if L > 1 {
		db.BrLoop(int32(L), "loop", "out")
	} else {
		db.Jmp("out")
	}
	db.NewBlock("out")
	db.Ret()

	// sys_X: entry point.
	name := "sys_" + bench
	b := ir.NewFunction(g.mod, name, 2)
	b.SetAttrs(ir.AttrEntry)
	b.SetSubsystem(bench)
	g.emitWork(b, prologueALU)
	b.Call("enter_syscall_trace", 1)
	seen := g.rng.Perm(len(g.prologues))
	for i, used := 0, 1; used < P && i < len(seen); i++ {
		pn := g.prologues[seen[i]]
		if pn == "enter_syscall_trace" || pn == "exit_syscall_trace" {
			continue
		}
		b.Call(pn, 1+g.rng.Intn(2))
		used++
	}
	b.Call(doName, 2)
	g.emitWork(b, epilogueALU)
	for i, used := 0, 1; used < E && i < len(seen); i++ {
		pn := g.prologues[seen[len(seen)-1-i]]
		if pn == "enter_syscall_trace" || pn == "exit_syscall_trace" {
			continue
		}
		b.Call(pn, 1)
		used++
	}
	b.Call("exit_syscall_trace", 1)
	b.Ret()

	g.kernel.Entries[bench] = name
}

// buildColdCode emits the never-executed driver corpus: the bulk of the
// static branch census. Functions only call higher-numbered functions so
// the cold call graph is acyclic.
func (g *gen) buildColdCode() {
	n := g.cfg.ColdFuncs
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("cold_drv_%d", i)
	}
	// Cold implementations for cold icall sites.
	coldPool := make([]string, 24)
	for i := range coldPool {
		coldPool[i] = fmt.Sprintf("cold_ops_impl_%d", i)
		b := ir.NewFunction(g.mod, coldPool[i], 1)
		b.SetSubsystem("drivers")
		g.emitWork(b, 6)
		b.Ret()
	}

	asmICallsLeft := g.cfg.AsmICalls
	asmTablesLeft := g.cfg.AsmJumpTables
	for i := 0; i < n; i++ {
		b := ir.NewFunction(g.mod, names[i], g.rng.Intn(4))
		b.SetSubsystem("drivers")
		g.emitWork(b, int64(8+g.rng.Intn(30)))
		calls := 6 + g.rng.Intn(8)
		for c := 0; c < calls; c++ {
			if i+1 < n && g.rng.Intn(10) < 8 {
				b.Call(names[i+1+g.rng.Intn(n-i-1)], g.rng.Intn(4))
			} else {
				b.Call(g.leaves[g.rng.Intn(len(g.leaves))], g.rng.Intn(2))
			}
		}
		// ~65% of cold functions hold 1–3 indirect call sites; these
		// are what dominate the kernel's 20k-site census.
		if g.rng.Intn(100) < 65 {
			k := 1 + g.rng.Intn(3)
			for j := 0; j < k; j++ {
				site, reg := b.Resolve()
				asm := false
				if asmICallsLeft > 0 && g.rng.Intn(40) == 0 {
					asm = true
					asmICallsLeft--
				}
				blk := b.Func().Blocks[len(b.Func().Blocks)-1]
				b.ICall(site, reg, g.rng.Intn(4))
				if asm {
					blk.Instrs[len(blk.Instrs)-1].Asm = true
				}
			}
		}
		// ~10% end in a switch (jump table).
		if g.rng.Intn(100) < 10 {
			arms := 3 + g.rng.Intn(6)
			targets := make([]string, arms)
			for a := range targets {
				targets[a] = fmt.Sprintf("case%d", a)
			}
			b.Switch(targets)
			if asmTablesLeft > 0 && g.rng.Intn(20) == 0 {
				blk := b.Func().Blocks[len(b.Func().Blocks)-1]
				blk.Instrs[len(blk.Instrs)-1].Asm = true
				asmTablesLeft--
			}
			for a := range targets {
				b.NewBlock(targets[a])
				g.emitWork(b, int64(2+g.rng.Intn(5)))
				b.Jmp("coldout")
			}
			b.NewBlock("coldout")
			b.Ret()
		} else {
			b.Ret()
		}
	}
	// Force remaining asm quota onto the last functions so the census
	// is deterministic regardless of RNG draws.
	for i := n - 1; i >= 0 && (asmICallsLeft > 0 || asmTablesLeft > 0); i-- {
		f := g.mod.Func(names[i])
		f.ForEachInstr(func(b *ir.Block, idx int, in *ir.Instr) {
			switch {
			case in.Op == ir.OpICall && !in.Asm && asmICallsLeft > 0:
				in.Asm = true
				asmICallsLeft--
			case in.Op == ir.OpSwitch && in.JumpTable && !in.Asm && asmTablesLeft > 0:
				in.Asm = true
				asmTablesLeft--
			}
		})
	}

	// Boot-only initialization code.
	for i := 0; i < g.cfg.BootFuncs; i++ {
		b := ir.NewFunction(g.mod, fmt.Sprintf("boot_init_%d", i), 0)
		b.SetAttrs(ir.AttrBoot)
		b.SetSubsystem("init")
		g.emitWork(b, int64(10+g.rng.Intn(20)))
		b.Call(names[g.rng.Intn(n)], 1)
		b.Ret()
	}
}
