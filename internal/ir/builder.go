package ir

// Builder constructs a Function incrementally. It is the convenience
// layer used by the synthetic kernel generator and by tests; transforms
// edit IR directly.
//
// A Builder always has a current block; instruction-emitting methods
// append to it. Emitting a terminator does not switch blocks — call
// NewBlock to continue elsewhere.
type Builder struct {
	mod *Module
	fn  *Function
	cur *Block
}

// NewFunction starts building a function with the given name and
// parameter count, creating its entry block. The function is registered
// in the module immediately so that calls to it can be emitted before it
// is finished. Like the other Builder conveniences it panics on producer
// misuse (here: a duplicate name).
func NewFunction(m *Module, name string, params int) *Builder {
	f := &Function{Name: name, Params: params}
	entry := &Block{Name: "entry"}
	f.Blocks = append(f.Blocks, entry)
	m.MustAddFunc(f)
	return &Builder{mod: m, fn: f, cur: entry}
}

// Func returns the function under construction.
func (b *Builder) Func() *Function { return b.fn }

// Module returns the module the function belongs to.
func (b *Builder) Module() *Module { return b.mod }

// SetAttrs adds attribute bits to the function.
func (b *Builder) SetAttrs(a Attr) *Builder {
	b.fn.Attrs |= a
	return b
}

// SetSubsystem labels the function with a subsystem name.
func (b *Builder) SetSubsystem(s string) *Builder {
	b.fn.Subsystem = s
	return b
}

// NewBlock appends a new block with the given name and makes it current.
func (b *Builder) NewBlock(name string) *Builder {
	blk := &Block{Name: name}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	b.fn.InvalidateIndex()
	b.cur = blk
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	b.cur.Instrs = append(b.cur.Instrs, in)
	return b
}

// Reg allocates a fresh virtual register.
func (b *Builder) Reg() int32 {
	r := int32(b.fn.NumRegs)
	b.fn.NumRegs++
	return r
}

// ALU emits n generic computation instructions of unit latency.
func (b *Builder) ALU(n int) *Builder {
	for i := 0; i < n; i++ {
		b.emit(Instr{Op: OpALU})
	}
	return b
}

// ALUCycles emits one computation instruction with the given latency.
func (b *Builder) ALUCycles(cycles int32) *Builder {
	return b.emit(Instr{Op: OpALU, Cycles: cycles})
}

// Load emits a memory load with the given latency (zero means 1).
func (b *Builder) Load(cycles int32) *Builder {
	return b.emit(Instr{Op: OpLoad, Cycles: cycles})
}

// Store emits a memory store.
func (b *Builder) Store() *Builder {
	return b.emit(Instr{Op: OpStore})
}

// Call emits a direct call with a fresh site ID and returns that ID.
func (b *Builder) Call(callee string, args int) SiteID {
	site := b.mod.NewSite()
	b.emit(Instr{Op: OpCall, Callee: callee, Args: int32(args), Site: site, Orig: site})
	return site
}

// Resolve emits a function-pointer load for a fresh site into a fresh
// register, returning both. The matching ICall must use the same register
// and the same site so that profiling attributes targets correctly.
func (b *Builder) Resolve() (SiteID, int32) {
	site := b.mod.NewSite()
	reg := b.Reg()
	b.emit(Instr{Op: OpResolve, Site: site, Orig: site, Reg: reg, Cycles: 1})
	return site, reg
}

// ICall emits an indirect call through reg for the given site.
func (b *Builder) ICall(site SiteID, reg int32, args int) *Builder {
	return b.emit(Instr{Op: OpICall, Site: site, Orig: site, Reg: reg, Args: int32(args)})
}

// IndirectCall is the common Resolve+ICall pair; it returns the site ID.
func (b *Builder) IndirectCall(args int) SiteID {
	site, reg := b.Resolve()
	b.ICall(site, reg, args)
	return site
}

// CmpFn emits a comparison of reg against the address of callee.
func (b *Builder) CmpFn(reg int32, callee string) *Builder {
	return b.emit(Instr{Op: OpCmpFn, Reg: reg, Callee: callee})
}

// BrFlag emits a conditional branch on the current flag.
func (b *Builder) BrFlag(then, els string) *Builder {
	return b.emit(Instr{Op: OpBr, Then: then, Else: els, UseFlag: true})
}

// BrProb emits a conditional branch taken with probability p.
func (b *Builder) BrProb(p float32, then, els string) *Builder {
	return b.emit(Instr{Op: OpBr, Then: then, Else: els, Prob: p})
}

// BrLoop emits a counted loop back-edge: taken to then on the first
// trip-1 executions per function activation, then to els.
func (b *Builder) BrLoop(trip int32, then, els string) *Builder {
	return b.emit(Instr{Op: OpBr, Then: then, Else: els, Trip: trip})
}

// Jmp emits an unconditional branch.
func (b *Builder) Jmp(to string) *Builder {
	return b.emit(Instr{Op: OpJmp, Then: to})
}

// Switch emits a multiway branch over the target blocks. Producers emit
// switches as jump tables; the hardening pass may clear JumpTable to lower
// them to compare chains.
func (b *Builder) Switch(targets []string) *Builder {
	return b.emit(Instr{Op: OpSwitch, Targets: append([]string(nil), targets...), JumpTable: true})
}

// Ret emits a return.
func (b *Builder) Ret() *Builder {
	return b.emit(Instr{Op: OpRet})
}
