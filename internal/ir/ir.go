// Package ir defines the intermediate representation that the PIBE
// pipeline operates on: modules of functions made of basic blocks of
// instructions over a small register machine.
//
// The IR is deliberately lower-level than a source AST and higher-level
// than machine code: it has explicit direct calls, indirect calls through
// registers, returns, conditional branches and multiway switches, which is
// exactly the vocabulary the paper's transformations (inlining, indirect
// call promotion, jump-table lowering, hardening) need. Every instruction
// carries a byte size so that code layout, image growth and instruction
// cache behaviour are measurable.
package ir

import "fmt"

// Opcode identifies the operation an Instr performs.
type Opcode uint8

// The instruction set. OpALU stands in for any straight-line computation
// (arithmetic, logic, address generation); its Cycles field carries the
// latency. Control flow and memory operations are explicit because the
// hardening passes and the CPU model treat them specially.
const (
	OpInvalid Opcode = iota
	OpALU            // generic computation
	OpLoad           // memory load
	OpStore          // memory store
	OpResolve        // load a function pointer for call site Site into Reg
	OpCmpFn          // compare Reg against function FnConst; sets the flag
	OpBr             // conditional branch to Then/Else (flag- or probability-driven)
	OpJmp            // unconditional branch to Then
	OpSwitch         // multiway branch over Targets (lowers to a jump table or a compare chain)
	OpCall           // direct call to Callee
	OpICall          // indirect call through Reg
	OpRet            // return to caller
	OpIJump          // indirect jump (lowered jump table dispatch)
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpALU:     "alu",
	OpLoad:    "load",
	OpStore:   "store",
	OpResolve: "resolve",
	OpCmpFn:   "cmpfn",
	OpBr:      "br",
	OpJmp:     "jmp",
	OpSwitch:  "switch",
	OpCall:    "call",
	OpICall:   "icall",
	OpRet:     "ret",
	OpIJump:   "ijump",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpBr, OpJmp, OpSwitch, OpRet, OpIJump:
		return true
	}
	return false
}

// IsCall reports whether the opcode transfers control to another function
// and pushes a return address.
func (op Opcode) IsCall() bool { return op == OpCall || op == OpICall }

// Defense identifies the hardening applied to an individual indirect
// branch (or to the call/branch form a site was lowered to). The zero
// value means the site is unprotected. Each defined value's semantics
// live in one DefenseInfo row (see Info); the CPU model, the hardening
// pass and the attack model all read them from there.
type Defense uint8

// Defenses attachable to instructions.
const (
	DefNone            Defense = iota
	DefRetpoline               // Spectre V2 retpoline thunk (forward edge)
	DefLVI                     // LVI-CFI lfence hardening
	DefFencedRetpoline         // combined LVI-protected retpoline (Listing 7)
	DefRetRetpoline            // return retpoline (backward edge)
	DefLVIRet                  // LVI-CFI return hardening (Listing 6)
	DefFencedRetRet            // combined return retpoline + LVI fence

	// Non-transient defenses, present in the paper's Table 1 to justify
	// its focus on the expensive transient ones: forward-edge CFI type
	// checks and backward-edge stack integrity. They do not inhibit
	// speculation.
	DefLLVMCFI        // LLVM-CFI forward-edge target-set check
	DefStackProtector // stack canary verified before return
	DefSafeStack      // return address on a separate safe stack

	// Post-2021 hardware-assisted defenses with cost shapes the paper's
	// Table 1 could not include: FineIBT's landing-pad SID compare lands
	// at the callee, PAC-CFI's sign/auth pair lands on the call and
	// return sides, and VeriFence fences only the sites a verifier-style
	// analysis (ProvableSites) cannot prove safe.
	DefFineIBT   // coarse IBT landing pad + per-site SID compare (forward edge)
	DefPAC       // PAC-CFI pointer signing on the call side (forward edge)
	DefPACRet    // PAC-CFI return-address authentication (backward edge)
	DefVeriFence // lfence at a verifier-unproved indirect branch
)

// NumDefenses is the number of defined Defense values. Every value below
// it has a descriptor row; no value at or above it is valid.
const NumDefenses = DefVeriFence + 1

// Edge is a bit set of the indirect control transfers a defense can
// guard.
type Edge uint8

// The guardable edges.
const (
	EdgeCall Edge = 1 << iota // indirect call (OpICall)
	EdgeRet                   // return (OpRet)
	EdgeJump                  // jump-table dispatch (OpSwitch with JumpTable)
)

// DefenseInfo describes what a defense does to the edges it guards.
type DefenseInfo struct {
	// Name is the defense's form in printed IR.
	Name string
	// Edges lists the transfers the defense guards. On any other edge
	// the CPU model charges the worst case and the attack model reports
	// the site vulnerable; Verify rejects the placement.
	Edges Edge
	// Predicted means the guarded branch still dispatches through the
	// BTB or RSB and the defense's cost adds to that dispatch. Otherwise
	// its cost replaces prediction: the thunk pins speculation and never
	// reads or trains the predictor.
	Predicted bool
	// Fenced means an lfence retires the target load before the
	// transfer, so LVI cannot inject the target.
	Fenced bool
	// Thunk counts a guarded call or return toward the CPU model's
	// ThunkedCalls/ThunkedRets. Jump-table dispatches are never counted.
	Thunk bool
	// Bytes is the encoded size of a hardened site. Retpoline thunk
	// bodies are shared (one per register), so a call site grows only by
	// the register move and thunk call; return-edge sequences are
	// inlined and a little larger.
	Bytes int32
}

var defenses = [NumDefenses]DefenseInfo{
	DefNone:            {Name: "none", Edges: EdgeCall | EdgeRet | EdgeJump, Predicted: true},
	DefRetpoline:       {Name: "retpoline", Edges: EdgeCall | EdgeJump, Thunk: true, Bytes: 8},
	DefLVI:             {Name: "lvi-cfi", Edges: EdgeCall, Predicted: true, Fenced: true, Thunk: true, Bytes: 8},
	DefFencedRetpoline: {Name: "fenced-retpoline", Edges: EdgeCall, Fenced: true, Thunk: true, Bytes: 10},
	DefRetRetpoline:    {Name: "ret-retpoline", Edges: EdgeRet, Thunk: true, Bytes: 12},
	DefLVIRet:          {Name: "lvi-ret", Edges: EdgeRet, Predicted: true, Fenced: true, Thunk: true, Bytes: 9},
	DefFencedRetRet:    {Name: "fenced-ret-retpoline", Edges: EdgeRet, Fenced: true, Thunk: true, Bytes: 15},
	DefLLVMCFI:         {Name: "llvm-cfi", Edges: EdgeCall, Predicted: true, Bytes: 9},
	DefStackProtector:  {Name: "stackprotector", Edges: EdgeRet, Predicted: true, Bytes: 10},
	DefSafeStack:       {Name: "safestack", Edges: EdgeRet, Predicted: true, Bytes: 8},
	// endbr64 at the target is charged to the callee; the site pays for
	// the SID move feeding the landing-pad compare.
	DefFineIBT: {Name: "fineibt", Edges: EdgeCall, Predicted: true, Thunk: true, Bytes: 7},
	// pacia-style sign folded into the call sequence; autia before ret.
	DefPAC:    {Name: "pac-cfi", Edges: EdgeCall, Predicted: true, Thunk: true, Bytes: 6},
	DefPACRet: {Name: "pac-ret", Edges: EdgeRet, Predicted: true, Thunk: true, Bytes: 6},
	// The kept dispatch plus a 3-byte lfence: a fenced jump table stays
	// a table and grows by exactly the fence.
	DefVeriFence: {Name: "verifence", Edges: EdgeCall | EdgeJump, Predicted: true, Fenced: true, Thunk: true, Bytes: DefaultInstrSize + 3},
}

// Info returns the defense's descriptor. An undefined value gets the
// zero DefenseInfo, which guards no edge and is neither predicted nor
// fenced.
func (d Defense) Info() DefenseInfo {
	if d < NumDefenses {
		return defenses[d]
	}
	return DefenseInfo{}
}

func (d Defense) String() string {
	if d < NumDefenses {
		return defenses[d].Name
	}
	return fmt.Sprintf("defense(%d)", uint8(d))
}

// DefaultInstrSize is the byte size assumed for an instruction unless the
// producer overrides it. Five bytes matches the approximation LLVM's
// InlineCost analysis uses for the average x86 instruction.
const DefaultInstrSize = 5

// Instr is a single IR instruction. The struct is a tagged union: which
// fields are meaningful depends on Op. Instructions are stored by value
// inside blocks so that cloning a function is a deep copy by construction.
type Instr struct {
	Op Opcode

	// Size is the encoded size in bytes; zero means DefaultInstrSize.
	Size int32

	// Cycles is the base latency of OpALU/OpLoad/OpStore; zero means 1.
	Cycles int32

	// Reg is the virtual register operand of OpResolve (destination),
	// OpCmpFn, OpICall and OpIJump (source).
	Reg int32

	// Args is the argument count of OpCall/OpICall; it feeds both the
	// InlineCost model (5 + 5*Args) and the timing model.
	Args int32

	// Site uniquely identifies a call site (OpCall, OpICall) or a
	// function-pointer load (OpResolve) within a module. Sites created
	// by cloning receive fresh IDs.
	Site SiteID

	// Orig is the site this one was cloned from; for sites that were
	// never cloned it equals Site. Profile value distributions and
	// workload target selection are keyed by Orig so that inlined
	// copies of an indirect call keep behaving like the original.
	Orig SiteID

	// Defense records the hardening thunk the site was rewritten to use.
	Defense Defense

	// Callee is the target of OpCall and the comparison constant of
	// OpCmpFn.
	Callee string

	// Then and Else name successor blocks of OpBr; Then also names the
	// successor of OpJmp.
	Then, Else string

	// Targets names the case blocks of OpSwitch.
	Targets []string

	// Prob is the probability OpBr takes Then when UseFlag is false.
	Prob float32

	// UseFlag makes OpBr consume the flag set by the latest OpCmpFn
	// instead of sampling Prob.
	UseFlag bool

	// Trip, when positive, makes OpBr a counted loop back-edge: within
	// one activation of the function the branch takes Then on its first
	// Trip-1 executions and Else on the Trip-th, then resets. This
	// models kernels iterating over fixed-size structures (fd tables,
	// VMA lists) deterministically.
	Trip int32

	// JumpTable marks an OpSwitch that is lowered through an indirect
	// jump table (one OpIJump-equivalent dispatch) rather than a
	// compare chain. Jump tables are what the hardening pass disables.
	JumpTable bool

	// Asm marks an instruction that originates from an inline-assembly
	// macro (e.g. the kernel's para-virtualization hypercalls). The
	// compiler cannot rewrite such sites, so hardening and optimization
	// passes must leave them alone — they are the residual vulnerable
	// branches of Table 11.
	Asm bool
}

// SiteID uniquely identifies a call site or resolve site within a module.
type SiteID int32

// ByteSize returns the encoded size of the instruction in bytes.
func (in *Instr) ByteSize() int32 {
	if in.Size > 0 {
		return in.Size
	}
	return DefaultInstrSize
}

// Latency returns the base latency of the instruction in cycles, before
// any microarchitectural effects the CPU model layers on top.
func (in *Instr) Latency() int32 {
	if in.Cycles > 0 {
		return in.Cycles
	}
	return 1
}

// Edge returns the guardable transfer the instruction performs: a call
// for OpICall, a return for OpRet, a jump for a jump-table OpSwitch, and
// no edge for any other instruction.
func (in *Instr) Edge() Edge {
	switch {
	case in.Op == OpICall:
		return EdgeCall
	case in.Op == OpRet:
		return EdgeRet
	case in.Op == OpSwitch && in.JumpTable:
		return EdgeJump
	}
	return 0
}

// DefenseFits reports whether the instruction's defense is DefNone or a
// defined defense that guards the instruction's edge. Verify and the
// execution engines reject any instruction it fails.
func (in *Instr) DefenseFits() bool {
	return in.Defense == DefNone || in.Defense.Info().Edges&in.Edge() != 0
}

// Clone returns a deep copy of the instruction.
func (in Instr) Clone() Instr {
	if in.Targets != nil {
		in.Targets = append([]string(nil), in.Targets...)
	}
	return in
}

// Block is a basic block: a named, straight-line run of instructions
// ending in a terminator. The blocks of a cloned function share one
// Instr array, each capped at its own length, so growing Instrs by
// append is safe; no code may rely on spare capacity in Instrs.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if the block
// is empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// ByteSize returns the total encoded size of the block.
func (b *Block) ByteSize() int64 {
	var n int64
	for i := range b.Instrs {
		n += int64(b.Instrs[i].ByteSize())
	}
	return n
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Name: b.Name, Instrs: make([]Instr, len(b.Instrs))}
	for i := range b.Instrs {
		nb.Instrs[i] = b.Instrs[i].Clone()
	}
	return nb
}

// Attr is a bit set of function attributes that constrain optimization,
// mirroring the LLVM attributes the paper's Table 9 cites as inlining
// inhibitors.
type Attr uint8

// Function attributes.
const (
	AttrNoInline   Attr = 1 << iota // callee must not be inlined
	AttrOptNone                     // function must not be transformed at all
	AttrInlineHint                  // producer suggests inlining
	AttrEntry                       // kernel entry point (syscall handler)
	AttrBoot                        // only runs during boot; irrelevant to transient attacks
)

// Has reports whether all bits of q are set.
func (a Attr) Has(q Attr) bool { return a&q == q }

// Function is a single IR function. Blocks[0] is the entry block.
type Function struct {
	Name    string
	Params  int
	Attrs   Attr
	Blocks  []*Block
	NumRegs int

	// Subsystem is a free-form label used by the synthetic kernel
	// generator ("vfs", "net", ...) and reporting; it has no semantic
	// effect on transformations.
	Subsystem string

	// Addr is the function's base address assigned by Module.Layout.
	Addr int64

	blockIdx map[string]int // lazily built name -> index
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Block returns the named block, or nil.
func (f *Function) Block(name string) *Block {
	i := f.BlockIndex(name)
	if i < 0 {
		return nil
	}
	return f.Blocks[i]
}

// BlockIndex returns the index of the named block, or -1.
func (f *Function) BlockIndex(name string) int {
	if f.blockIdx == nil || len(f.blockIdx) != len(f.Blocks) {
		f.reindex()
	}
	if i, ok := f.blockIdx[name]; ok && i < len(f.Blocks) && f.Blocks[i].Name == name {
		return i
	}
	// Index may be stale after in-place edits; rebuild once.
	f.reindex()
	if i, ok := f.blockIdx[name]; ok {
		return i
	}
	return -1
}

func (f *Function) reindex() {
	f.blockIdx = make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		f.blockIdx[b.Name] = i
	}
}

// InvalidateIndex drops the cached block-name index after structural edits.
func (f *Function) InvalidateIndex() { f.blockIdx = nil }

// ByteSize returns the total encoded size of the function.
func (f *Function) ByteSize() int64 {
	var n int64
	for _, b := range f.Blocks {
		n += b.ByteSize()
	}
	return n
}

// Clone returns a deep copy of the function. Site IDs are preserved;
// callers that splice cloned bodies into other functions must refresh
// site IDs through Module.CloneBlocksInto.
//
// The copy's blocks share one Block array and one Instr array, each
// block's Instrs capped at its own length so that appending to it
// reallocates instead of overwriting the next block.
func (f *Function) Clone() *Function {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	blocks := make([]Block, len(f.Blocks))
	instrs := make([]Instr, n)
	nf := &Function{
		Name:      f.Name,
		Params:    f.Params,
		Attrs:     f.Attrs,
		NumRegs:   f.NumRegs,
		Subsystem: f.Subsystem,
		Addr:      f.Addr,
		Blocks:    make([]*Block, len(f.Blocks)),
	}
	lo := 0
	for i, b := range f.Blocks {
		hi := lo + copy(instrs[lo:], b.Instrs)
		blocks[i] = Block{Name: b.Name, Instrs: instrs[lo:hi:hi]}
		nf.Blocks[i] = &blocks[i]
		lo = hi
	}
	for i := range instrs {
		if instrs[i].Targets != nil {
			instrs[i].Targets = append([]string(nil), instrs[i].Targets...)
		}
	}
	return nf
}

// ForEachInstr calls fn for every instruction in the function, in layout
// order, passing the containing block and the instruction index. The
// callback may mutate the instruction in place but must not add or remove
// instructions.
func (f *Function) ForEachInstr(fn func(b *Block, i int, in *Instr)) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			fn(b, i, &b.Instrs[i])
		}
	}
}

// Module is a linked program: an ordered collection of functions plus the
// site-ID allocator. Order is deterministic and meaningful (layout order).
type Module struct {
	Funcs []*Function

	funcIdx  map[string]int
	nextSite SiteID
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{funcIdx: make(map[string]int)}
}

// AddFunc appends f to the module. A function with the same name already
// present is a producer bug; it is reported as an error rather than a
// panic so module-building pipelines degrade instead of crashing.
func (m *Module) AddFunc(f *Function) error {
	if m.funcIdx == nil {
		m.funcIdx = make(map[string]int)
	}
	if _, dup := m.funcIdx[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	m.funcIdx[f.Name] = len(m.Funcs)
	m.Funcs = append(m.Funcs, f)
	return nil
}

// MustAddFunc is AddFunc for producers that have already established the
// name is fresh (clones of valid modules, generated unique names); it
// panics on a duplicate.
func (m *Module) MustAddFunc(f *Function) {
	if err := m.AddFunc(f); err != nil {
		panic(err.Error())
	}
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function {
	if i, ok := m.funcIdx[name]; ok {
		return m.Funcs[i]
	}
	return nil
}

// NumFuncs returns the number of functions in the module.
func (m *Module) NumFuncs() int { return len(m.Funcs) }

// NewSite allocates a fresh site ID.
func (m *Module) NewSite() SiteID {
	m.nextSite++
	return m.nextSite
}

// NextSiteID reports the next site ID that NewSite would return, which is
// also an upper bound (exclusive) on all allocated IDs plus one.
func (m *Module) NextSiteID() SiteID { return m.nextSite + 1 }

// ReserveSites bumps the allocator so the next site ID is at least n+1.
// Producers that assign site IDs themselves call this to keep NewSite from
// reusing them.
func (m *Module) ReserveSites(n SiteID) {
	if n > m.nextSite {
		m.nextSite = n
	}
}

// ByteSize returns the total encoded size of all functions.
func (m *Module) ByteSize() int64 {
	var n int64
	for _, f := range m.Funcs {
		n += f.ByteSize()
	}
	return n
}

// Layout assigns a base address to every function and returns the total
// image size. Functions are laid out in module order, aligned to align
// bytes (minimum 16).
func (m *Module) Layout(base int64, align int64) int64 {
	if align < 16 {
		align = 16
	}
	addr := base
	for _, f := range m.Funcs {
		addr = (addr + align - 1) / align * align
		f.Addr = addr
		addr += f.ByteSize()
	}
	return addr - base
}

// Clone returns a deep copy of the module, preserving function order and
// the site-ID allocator state.
func (m *Module) Clone() *Module {
	nm := NewModule()
	nm.nextSite = m.nextSite
	for _, f := range m.Funcs {
		nm.MustAddFunc(f.Clone())
	}
	return nm
}

// CloneBlocksInto deep-copies the body of src, renaming every block with
// the given prefix and allocating fresh site IDs (preserving Orig). The
// register operands are shifted by regBase. Returns the cloned blocks.
//
// This is the primitive both the inliner and test fixtures build on.
func (m *Module) CloneBlocksInto(src *Function, prefix string, regBase int32) []*Block {
	blocks := make([]*Block, len(src.Blocks))
	for i, b := range src.Blocks {
		nb := b.Clone()
		nb.Name = prefix + b.Name
		for j := range nb.Instrs {
			in := &nb.Instrs[j]
			switch in.Op {
			case OpResolve, OpCmpFn, OpICall, OpIJump:
				in.Reg += regBase
			}
			if in.Site != 0 {
				orig := in.Orig
				if orig == 0 {
					orig = in.Site
				}
				in.Site = m.NewSite()
				in.Orig = orig
			}
			if in.Then != "" {
				in.Then = prefix + in.Then
			}
			if in.Else != "" {
				in.Else = prefix + in.Else
			}
			for k := range in.Targets {
				in.Targets[k] = prefix + in.Targets[k]
			}
		}
		blocks[i] = nb
	}
	return blocks
}

// Stats summarizes the static composition of a module. It backs the size
// and branch-census tables of the evaluation (Tables 10–12).
type Stats struct {
	Funcs         int
	Blocks        int
	Instrs        int64
	Bytes         int64
	DirectCalls   int // OpCall sites
	IndirectCalls int // OpICall sites
	Returns       int // OpRet sites
	IndirectJumps int // OpIJump sites plus jump-table switches
	Switches      int // OpSwitch sites
	JumpTables    int // OpSwitch sites lowered as jump tables
	DefenseCount  map[Defense]int
}

// CollectStats walks the module and tallies its static composition.
func CollectStats(m *Module) Stats {
	s := Stats{DefenseCount: make(map[Defense]int)}
	s.Funcs = len(m.Funcs)
	for _, f := range m.Funcs {
		s.Blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			s.Instrs += int64(len(b.Instrs))
			for i := range b.Instrs {
				in := &b.Instrs[i]
				s.Bytes += int64(in.ByteSize())
				switch in.Op {
				case OpCall:
					s.DirectCalls++
				case OpICall:
					s.IndirectCalls++
					s.DefenseCount[in.Defense]++
				case OpRet:
					s.Returns++
					s.DefenseCount[in.Defense]++
				case OpIJump:
					s.IndirectJumps++
					s.DefenseCount[in.Defense]++
				case OpSwitch:
					s.Switches++
					if in.JumpTable {
						s.JumpTables++
						s.IndirectJumps++
					}
				}
			}
		}
	}
	return s
}
