package ir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads the textual form produced by Print/PrintModule back into a
// module. Parse(Print(m)) is the identity on every field the printer
// emits; fields the printer omits for brevity (unit latencies, default
// sizes) come back as their defaults. It exists for golden tests, for
// the `pibe dump` tooling, and for writing compact IR fixtures by hand.
func Parse(r io.Reader) (*Module, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	m := NewModule()
	var (
		fn      *Function
		blk     *Block
		line    int
		maxSite SiteID
	)
	finishFunc := func() {
		fn, blk = nil, nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		trimmed := strings.TrimSpace(text)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			finishFunc()
			continue
		}
		switch {
		case strings.HasPrefix(trimmed, "func "):
			f, err := parseFuncHeader(trimmed)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %v", line, err)
			}
			if err := m.AddFunc(f); err != nil {
				return nil, fmt.Errorf("ir: line %d: %v", line, err)
			}
			fn, blk = f, nil
		case strings.HasSuffix(trimmed, ":") && !strings.HasPrefix(text, " "):
			if fn == nil {
				return nil, fmt.Errorf("ir: line %d: block outside function", line)
			}
			blk = &Block{Name: strings.TrimSuffix(trimmed, ":")}
			fn.Blocks = append(fn.Blocks, blk)
			fn.InvalidateIndex()
		default:
			if blk == nil {
				return nil, fmt.Errorf("ir: line %d: instruction outside block", line)
			}
			in, err := parseInstr(trimmed)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %v", line, err)
			}
			if in.Site > maxSite {
				maxSite = in.Site
			}
			blk.Instrs = append(blk.Instrs, in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m.ReserveSites(maxSite)
	return m, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Module, error) { return Parse(strings.NewReader(s)) }

func parseFuncHeader(s string) (*Function, error) {
	// func NAME (params=N, regs=M) [attr,attr]
	rest := strings.TrimPrefix(s, "func ")
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return nil, fmt.Errorf("malformed function header %q", s)
	}
	name := strings.TrimSpace(rest[:open])
	close := strings.IndexByte(rest, ')')
	if close < open {
		return nil, fmt.Errorf("malformed function header %q", s)
	}
	f := &Function{Name: name}
	for _, kv := range strings.Split(rest[open+1:close], ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("malformed attribute %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		switch k {
		case "params":
			f.Params = n
		case "regs":
			f.NumRegs = n
		default:
			return nil, fmt.Errorf("unknown header field %q", k)
		}
	}
	if tail := strings.TrimSpace(rest[close+1:]); strings.HasPrefix(tail, "[") && strings.HasSuffix(tail, "]") {
		for _, a := range strings.Split(tail[1:len(tail)-1], ",") {
			switch a {
			case "noinline":
				f.Attrs |= AttrNoInline
			case "optnone":
				f.Attrs |= AttrOptNone
			case "inlinehint":
				f.Attrs |= AttrInlineHint
			case "entry":
				f.Attrs |= AttrEntry
			case "boot":
				f.Attrs |= AttrBoot
			default:
				return nil, fmt.Errorf("unknown attribute %q", a)
			}
		}
	}
	return f, nil
}

func parseInstr(s string) (Instr, error) {
	var in Instr
	// Trailing [defense] annotation.
	if i := strings.LastIndexByte(s, '['); i >= 0 && strings.HasSuffix(s, "]") {
		tag := s[i+1 : len(s)-1]
		if d, ok := defenseByName(tag); ok {
			in.Defense = d
			s = strings.TrimSpace(s[:i])
		}
	}
	op, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	kv := func(key string) (string, bool) {
		for _, f := range fields {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				return v, true
			}
		}
		return "", false
	}
	atoi32 := func(v string) (int32, error) {
		n, err := strconv.ParseInt(v, 10, 32)
		return int32(n), err
	}
	if v, ok := kv("cycles"); ok {
		n, err := atoi32(v)
		if err != nil {
			return in, err
		}
		in.Cycles = n
	}
	if v, ok := kv("site"); ok {
		n, err := atoi32(v)
		if err != nil {
			return in, err
		}
		in.Site = SiteID(n)
		in.Orig = in.Site
	}
	if v, ok := kv("orig"); ok {
		n, err := atoi32(v)
		if err != nil {
			return in, err
		}
		in.Orig = SiteID(n)
	}
	if v, ok := kv("args"); ok {
		n, err := atoi32(v)
		if err != nil {
			return in, err
		}
		in.Args = n
	}
	reg := func(tok string) (int32, error) {
		if !strings.HasPrefix(tok, "r") {
			return 0, fmt.Errorf("expected register, got %q", tok)
		}
		return atoi32(strings.TrimSuffix(strings.TrimPrefix(tok, "r"), ","))
	}
	switch op {
	case "alu":
		in.Op = OpALU
	case "load":
		in.Op = OpLoad
	case "store":
		in.Op = OpStore
	case "resolve":
		in.Op = OpResolve
		if len(fields) < 1 {
			return in, fmt.Errorf("resolve needs a register")
		}
		r, err := reg(fields[0])
		if err != nil {
			return in, err
		}
		in.Reg = r
		if in.Cycles == 0 {
			in.Cycles = 1
		}
	case "cmpfn":
		in.Op = OpCmpFn
		if len(fields) < 2 {
			return in, fmt.Errorf("cmpfn needs register and target")
		}
		r, err := reg(fields[0])
		if err != nil {
			return in, err
		}
		in.Reg = r
		in.Callee = strings.TrimPrefix(fields[1], "@")
	case "br":
		in.Op = OpBr
		// "br flag, A, B" or "br p=0.500, A, B"
		parts := strings.SplitN(rest, ",", 3)
		if len(parts) != 3 {
			return in, fmt.Errorf("malformed br %q", s)
		}
		cond := strings.TrimSpace(parts[0])
		switch {
		case cond == "flag":
			in.UseFlag = true
		case strings.HasPrefix(cond, "p="):
			p, err := strconv.ParseFloat(cond[2:], 32)
			if err != nil {
				return in, err
			}
			in.Prob = float32(p)
		case strings.HasPrefix(cond, "trip="):
			n, err := atoi32(cond[5:])
			if err != nil {
				return in, err
			}
			in.Trip = n
		default:
			return in, fmt.Errorf("unknown br condition %q", cond)
		}
		in.Then = strings.TrimSpace(parts[1])
		in.Else = strings.TrimSpace(parts[2])
	case "jmp":
		in.Op = OpJmp
		if len(fields) < 1 {
			return in, fmt.Errorf("jmp needs a target")
		}
		in.Then = fields[0]
	case "switch":
		in.Op = OpSwitch
		// "switch A, B, C [table|chain]"
		body := rest
		if i := strings.LastIndexByte(body, '['); i >= 0 {
			mode := strings.TrimSuffix(body[i+1:], "]")
			in.JumpTable = mode == "table"
			body = strings.TrimSpace(body[:i])
		}
		for _, tgt := range strings.Split(body, ",") {
			tgt = strings.TrimSpace(tgt)
			if tgt != "" {
				in.Targets = append(in.Targets, tgt)
			}
		}
		if len(in.Targets) == 0 {
			return in, fmt.Errorf("switch with no targets")
		}
	case "call":
		in.Op = OpCall
		if len(fields) < 1 || !strings.HasPrefix(fields[0], "@") {
			return in, fmt.Errorf("call needs @callee")
		}
		in.Callee = strings.TrimPrefix(fields[0], "@")
	case "icall":
		in.Op = OpICall
		if len(fields) < 1 {
			return in, fmt.Errorf("icall needs a register")
		}
		r, err := reg(fields[0])
		if err != nil {
			return in, err
		}
		in.Reg = r
	case "ret":
		in.Op = OpRet
	default:
		return in, fmt.Errorf("unknown opcode %q", op)
	}
	return in, nil
}

func defenseByName(name string) (Defense, bool) {
	for d := DefNone + 1; d < NumDefenses; d++ {
		if defenses[d].Name == name {
			return d, true
		}
	}
	return DefNone, false
}
