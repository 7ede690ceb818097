package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses the textual IR format produced by Print and returns a
// finalized, verified module.
//
// The format is line oriented:
//
//	module NAME
//
//	struct Queue {
//	  head: int
//	  buf: *int
//	}
//
//	global fifo: *Queue
//	global hits: int = 0
//
//	func worker(id: int) int {
//	entry:
//	  %p = load @fifo
//	  %h = fieldaddr %p, head
//	  %v = load %h
//	  %c = eq %v, 0
//	  condbr %c, done, more
//	more:
//	  %v2 = add %v, 1
//	  store %v2, %h
//	  br done
//	done:
//	  ret %v
//	}
//
// Comments start with // or # and run to end of line. A register's
// first occurrence must be its definition. Struct types may be
// referenced before their definition. Typed null pointers are written
// "null:*T".
func Parse(src string) (*Module, error) {
	p := &parser{
		structs: map[string]*StructType{},
		funcs:   map[string]*Func{},
		globals: map[string]*GlobalRef{},
		consts:  map[int64]*Const{},
		ptrs:    map[Type]*PtrType{},
		arrays:  map[arrayKey]*ArrayType{},
	}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.m.Finalize()
	if err := Verify(p.m); err != nil {
		return nil, fmt.Errorf("ir: parsed module does not verify: %w", err)
	}
	return p.m, nil
}

// ParseError describes a parse failure with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ir: line %d: %s", e.Line, e.Msg)
}

type parser struct {
	m *Module
	// lines holds the source lines with comments and surrounding
	// space already stripped.
	lines   []string
	lineNo  int // 1-based index of the line being parsed
	structs map[string]*StructType
	// funcs and globals index the module's declarations by name; pass
	// 1 fills them and every operand looks its name up in them. Like
	// the Builder's, one GlobalRef serves every use of its global;
	// consts holds one Const per integer literal, ptrs one PtrType per
	// element type and arrays one ArrayType per element type and
	// length. A parsed module is long-lived, and the garbage collector
	// marks every object in it on every cycle; Verify checks each
	// shared type once.
	funcs   map[string]*Func
	globals map[string]*GlobalRef
	consts  map[int64]*Const
	ptrs    map[Type]*PtrType
	arrays  map[arrayKey]*ArrayType
}

type arrayKey struct {
	elem Type
	n    int64
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.lineNo, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) run(src string) error {
	p.lines = strings.Split(src, "\n")
	for i, line := range p.lines {
		p.lines[i] = stripComment(line)
	}
	// Pass 1: module name, struct defs, globals, function headers.
	if err := p.scanDecls(); err != nil {
		return err
	}
	// Referenced-but-undefined structs are placeholders with no
	// fields; surface them as module errors via the verifier by
	// recording them on the module.
	for _, st := range p.structs {
		if p.m.StructByName(st.Name) == nil {
			p.m.Structs = append(p.m.Structs, st)
		}
	}
	// Pass 2: function bodies.
	return p.parseBodies()
}

// stripComment cuts a "#" or "//" comment from line and trims it. A
// marker inside an assert's quoted message is part of the message.
func stripComment(line string) string {
	if strings.IndexByte(line, '"') >= 0 {
		return strings.TrimSpace(line[:commentStart(line)])
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// commentStart returns where line's comment starts, or len(line):
// the first "#" or "//" outside a Go-quoted string.
func commentStart(line string) int {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++ // the escaped byte cannot end the string
		case c == '"':
			quoted = !quoted
		case !quoted && (c == '#' || c == '/' && strings.HasPrefix(line[i:], "//")):
			return i
		}
	}
	return len(line)
}

func (p *parser) scanDecls() error {
	for i := 0; i < len(p.lines); i++ {
		p.lineNo = i + 1
		line := p.lines[i]
		switch {
		case line == "":
		case strings.HasPrefix(line, "module "):
			if p.m != nil {
				return p.errf("duplicate module declaration")
			}
			p.m = NewModule(strings.TrimSpace(strings.TrimPrefix(line, "module ")))
		case strings.HasPrefix(line, "struct "):
			var err error
			i, err = p.scanStruct(i)
			if err != nil {
				return err
			}
		case strings.HasPrefix(line, "global "):
			if err := p.scanGlobal(line); err != nil {
				return err
			}
		case strings.HasPrefix(line, "func "):
			var err error
			i, err = p.scanFuncHeader(i)
			if err != nil {
				return err
			}
		default:
			return p.errf("unexpected top-level line %q", line)
		}
	}
	if p.m == nil {
		return &ParseError{Line: 1, Msg: "missing module declaration"}
	}
	return nil
}

// structByName returns the named struct, creating a placeholder for
// forward references.
func (p *parser) structByName(name string) *StructType {
	if st, ok := p.structs[name]; ok {
		return st
	}
	st := &StructType{Name: name}
	p.structs[name] = st
	return st
}

func (p *parser) scanStruct(start int) (end int, err error) {
	p.lineNo = start + 1
	if p.m == nil {
		return start, p.errf("struct before module declaration")
	}
	head := p.lines[start]
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "struct "), "{"))
	if name == "" || strings.ContainsAny(name, " \t") || !strings.HasSuffix(head, "{") {
		return start, p.errf("malformed struct header %q", head)
	}
	st := p.structByName(name)
	if len(st.Fields) > 0 {
		return start, p.errf("duplicate struct %s", name)
	}
	for i := start + 1; i < len(p.lines); i++ {
		p.lineNo = i + 1
		line := p.lines[i]
		if line == "" {
			continue
		}
		if line == "}" {
			if p.m.StructByName(name) == nil {
				p.m.Structs = append(p.m.Structs, st)
			}
			return i, nil
		}
		fname, ftype, ok := strings.Cut(line, ":")
		if !ok {
			return i, p.errf("malformed field %q", line)
		}
		t, err := p.parseType(strings.TrimSpace(ftype))
		if err != nil {
			return i, err
		}
		st.Fields = append(st.Fields, Field{Name: strings.TrimSpace(fname), Type: t})
	}
	return len(p.lines), p.errf("unterminated struct %s", name)
}

func (p *parser) scanGlobal(line string) error {
	if p.m == nil {
		return p.errf("global before module declaration")
	}
	rest := strings.TrimPrefix(line, "global ")
	var initVal *int64
	if name, val, ok := strings.Cut(rest, "="); ok {
		rest = strings.TrimSpace(name)
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return p.errf("malformed global initializer %q", val)
		}
		initVal = &n
	}
	name, typStr, ok := strings.Cut(rest, ":")
	if !ok {
		return p.errf("malformed global %q", line)
	}
	t, err := p.parseType(strings.TrimSpace(typStr))
	if err != nil {
		return err
	}
	g := &Global{Name: strings.TrimSpace(name), Typ: t}
	if initVal != nil {
		g.Init = &Const{Val: *initVal, Typ: t}
	}
	if p.globals[g.Name] != nil {
		return p.errf("duplicate global %s", g.Name)
	}
	p.globals[g.Name] = &GlobalRef{Global: g}
	p.m.Globals = append(p.m.Globals, g)
	return nil
}

// scanFuncHeader parses a "func name(params) [ret] {" line, creates
// the Func with its signature, and skips past the body to its closing
// brace.
func (p *parser) scanFuncHeader(start int) (end int, err error) {
	p.lineNo = start + 1
	if p.m == nil {
		return start, p.errf("func before module declaration")
	}
	head := p.lines[start]
	if !strings.HasSuffix(head, "{") {
		return start, p.errf("func header must end in '{': %q", head)
	}
	head = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "func "), "{"))
	open := strings.IndexByte(head, '(')
	closeIdx := strings.LastIndexByte(head, ')')
	if open < 0 || closeIdx < open {
		return start, p.errf("malformed func header %q", head)
	}
	name := strings.TrimSpace(head[:open])
	paramsStr := head[open+1 : closeIdx]
	retStr := strings.TrimSpace(head[closeIdx+1:])

	f := &Func{Name: name, Sig: &FuncType{Ret: Void}}
	if retStr != "" {
		ret, err := p.parseType(retStr)
		if err != nil {
			return start, err
		}
		f.Sig.Ret = ret
	}
	if strings.TrimSpace(paramsStr) != "" {
		for more := true; more; {
			var ps string
			ps, paramsStr, more = strings.Cut(paramsStr, ",")
			pname, ptype, ok := strings.Cut(ps, ":")
			if !ok {
				return start, p.errf("malformed parameter %q", ps)
			}
			t, err := p.parseType(strings.TrimSpace(ptype))
			if err != nil {
				return start, err
			}
			r := &Reg{Name: strings.TrimSpace(pname), Index: len(f.Regs), Typ: t}
			f.Regs = append(f.Regs, r)
			f.Params = append(f.Params, r)
			f.Sig.Params = append(f.Sig.Params, t)
		}
	}
	if p.funcs[name] != nil {
		return start, p.errf("duplicate function %s", name)
	}
	p.funcs[name] = f
	p.m.Funcs = append(p.m.Funcs, f)

	// Skip the body; parsed in pass 2.
	for i := start + 1; i < len(p.lines); i++ {
		if p.lines[i] == "}" {
			return i, nil
		}
	}
	p.lineNo = start + 1
	return len(p.lines), p.errf("unterminated function %s", name)
}

// ptrTo returns the module's one pointer type to elem. Pointer and
// array types compare structurally (TypesEqual), so sharing one is
// invisible.
func (p *parser) ptrTo(elem Type) *PtrType {
	pt := p.ptrs[elem]
	if pt == nil {
		pt = PtrTo(elem)
		p.ptrs[elem] = pt
	}
	return pt
}

func (p *parser) parseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "int":
		return Int, nil
	case s == "bool":
		return Bool, nil
	case s == "mutex":
		return Mutex, nil
	case s == "cond":
		return Cond, nil
	case s == "void":
		return Void, nil
	case strings.HasPrefix(s, "*"):
		elem, err := p.parseType(s[1:])
		if err != nil {
			return nil, err
		}
		return p.ptrTo(elem), nil
	case strings.HasPrefix(s, "func("):
		close := strings.LastIndexByte(s, ')')
		if close < 0 {
			return nil, p.errf("malformed func type %q", s)
		}
		ft := &FuncType{Ret: Void}
		if params := strings.TrimSpace(s[len("func("):close]); params != "" {
			for _, ps := range strings.Split(params, ",") {
				pt, err := p.parseType(ps)
				if err != nil {
					return nil, err
				}
				ft.Params = append(ft.Params, pt)
			}
		}
		if ret := strings.TrimSpace(s[close+1:]); ret != "" {
			rt, err := p.parseType(ret)
			if err != nil {
				return nil, err
			}
			ft.Ret = rt
		}
		return ft, nil
	case strings.HasPrefix(s, "["):
		close := strings.IndexByte(s, ']')
		if close < 0 {
			return nil, p.errf("malformed array type %q", s)
		}
		n, err := strconv.ParseInt(s[1:close], 10, 64)
		if err != nil {
			return nil, p.errf("malformed array length in %q", s)
		}
		elem, err := p.parseType(s[close+1:])
		if err != nil {
			return nil, err
		}
		at := p.arrays[arrayKey{elem, n}]
		if at == nil {
			at = ArrayOf(elem, n)
			p.arrays[arrayKey{elem, n}] = at
		}
		return at, nil
	case s != "" && !strings.ContainsAny(s, " \t(),"):
		return p.structByName(s), nil
	}
	return nil, p.errf("malformed type %q", s)
}

func (p *parser) parseBodies() error {
	fi := 0
	for i := 0; i < len(p.lines); i++ {
		p.lineNo = i + 1
		if !strings.HasPrefix(p.lines[i], "func ") {
			continue
		}
		if fi >= len(p.m.Funcs) {
			return p.errf("internal: more func bodies than headers")
		}
		end, err := p.parseBody(p.m.Funcs[fi], i)
		if err != nil {
			return err
		}
		fi++
		i = end
	}
	return nil
}

// funcParser holds per-function parsing state.
type funcParser struct {
	p      *parser
	f      *Func
	regs   map[string]*Reg
	blocks map[string]*Block
}

func (p *parser) parseBody(f *Func, start int) (end int, err error) {
	fp := &funcParser{p: p, f: f, regs: map[string]*Reg{}, blocks: map[string]*Block{}}
	for _, r := range f.Params {
		fp.regs[r.Name] = r
	}
	// Pre-scan for block labels so forward branches resolve.
	bodyEnd := start
	for i := start + 1; i < len(p.lines); i++ {
		line := p.lines[i]
		if line == "}" {
			bodyEnd = i
			break
		}
		if isLabel(line) && line != ":" {
			name := line[:len(line)-1]
			if _, dup := fp.blocks[name]; dup {
				p.lineNo = i + 1
				return i, p.errf("duplicate block %s", name)
			}
			b := &Block{Name: name, Parent: f}
			fp.blocks[name] = b
			f.Blocks = append(f.Blocks, b)
		}
	}
	var cur *Block
	for i := start + 1; i < bodyEnd; i++ {
		p.lineNo = i + 1
		line := p.lines[i]
		if line == "" {
			continue
		}
		if isLabel(line) {
			cur = fp.blocks[line[:len(line)-1]]
			continue
		}
		if cur == nil {
			return i, p.errf("instruction before first block label")
		}
		in, err := fp.parseInstr(line)
		if err != nil {
			return i, err
		}
		cur.Instrs = append(cur.Instrs, in)
	}
	return bodyEnd, nil
}

// isLabel reports whether a stripped body line is a block label.
func isLabel(line string) bool {
	return strings.HasSuffix(line, ":") && !strings.Contains(line, " ")
}

func (fp *funcParser) defReg(name string, typ Type) (*Reg, error) {
	if r, ok := fp.regs[name]; ok {
		if !TypesEqual(r.Typ, typ) {
			return nil, fp.p.errf("register %%%s redefined with type %s (was %s)", name, typ, r.Typ)
		}
		return r, nil
	}
	r := &Reg{Name: name, Index: len(fp.f.Regs), Typ: typ}
	fp.f.Regs = append(fp.f.Regs, r)
	fp.regs[name] = r
	return r, nil
}

func (fp *funcParser) block(name string) (*Block, error) {
	b, ok := fp.blocks[name]
	if !ok {
		return nil, fp.p.errf("unknown block %q", name)
	}
	return b, nil
}

// parseValue parses one operand.
func (fp *funcParser) parseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, fp.p.errf("empty operand")
	case strings.HasPrefix(s, "%"):
		r, ok := fp.regs[s[1:]]
		if !ok {
			return nil, fp.p.errf("use of undefined register %s", s)
		}
		return r, nil
	case strings.HasPrefix(s, "@"):
		g := fp.p.globals[s[1:]]
		if g == nil {
			return nil, fp.p.errf("unknown global %s", s)
		}
		return g, nil
	case s == "true":
		return ConstBool(true), nil
	case s == "false":
		return ConstBool(false), nil
	case strings.HasPrefix(s, "null:"):
		t, err := fp.p.parseType(s[len("null:"):])
		if err != nil {
			return nil, err
		}
		pt, ok := t.(*PtrType)
		if !ok {
			return nil, fp.p.errf("null of non-pointer type %s", t)
		}
		return Null(pt), nil
	}
	// Only a leading digit or sign can start an integer; testing it
	// first spares every function name a failed ParseInt's error.
	if c := s[0]; c >= '0' && c <= '9' || c == '-' || c == '+' {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			k := fp.p.consts[n]
			if k == nil {
				k = ConstInt(n)
				fp.p.consts[n] = k
			}
			return k, nil
		}
	}
	if f := fp.p.funcs[s]; f != nil {
		return &FuncRef{Func: f}, nil
	}
	return nil, fp.p.errf("malformed operand %q", s)
}

// parseValues parses a comma-separated operand list into a new slice.
func (fp *funcParser) parseValues(s string) ([]Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	return fp.appendValues(make([]Value, 0, strings.Count(s, ",")+1), s)
}

// appendValues parses a comma-separated operand list onto vals. An
// empty list adds nothing; an empty operand within one is an error.
// Instructions with a fixed operand count pass a stack array.
func (fp *funcParser) appendValues(vals []Value, s string) ([]Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return vals, nil
	}
	for {
		part, rest, more := strings.Cut(s, ",")
		v, err := fp.parseValue(part)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if !more {
			return vals, nil
		}
		s = rest
	}
}

var binOpsByName = map[string]BinOp{
	"add": Add, "sub": Sub, "mul": Mul, "div": Div, "rem": Rem,
	"and": And, "or": Or, "xor": Xor, "shl": Shl, "shr": Shr,
	"eq": Eq, "ne": Ne, "lt": Lt, "le": Le, "gt": Gt, "ge": Ge,
}

func (fp *funcParser) parseInstr(line string) (Instr, error) {
	// Split "%dst = rhs" from plain "rhs".
	var dstName string
	rhs := line
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fp.p.errf("malformed instruction %q", line)
		}
		dstName = strings.TrimSpace(line[:eq])
		if !strings.HasPrefix(dstName, "%") {
			return nil, fp.p.errf("malformed destination %q", dstName)
		}
		dstName = dstName[1:]
		rhs = strings.TrimSpace(line[eq+1:])
	}
	kw, rest, _ := strings.Cut(rhs, " ")
	rest = strings.TrimSpace(rest)

	switch {
	case kw == "alloca" || kw == "new":
		t, err := fp.p.parseType(rest)
		if err != nil {
			return nil, err
		}
		dst, err := fp.defReg(dstName, fp.p.ptrTo(t))
		if err != nil {
			return nil, err
		}
		if kw == "alloca" {
			return &AllocaInstr{anInstr: newAnInstr(), Dst: dst, Elem: t}, nil
		}
		return &NewInstr{anInstr: newAnInstr(), Dst: dst, Elem: t}, nil

	case kw == "load":
		addr, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		elem := Deref(addr.Type())
		if elem == nil {
			return nil, fp.p.errf("load through non-pointer %q", rest)
		}
		dst, err := fp.defReg(dstName, elem)
		if err != nil {
			return nil, err
		}
		return &LoadInstr{anInstr: newAnInstr(), Dst: dst, Addr: addr}, nil

	case kw == "store":
		var ops [2]Value
		vals, err := fp.appendValues(ops[:0], rest)
		if err != nil {
			return nil, err
		}
		if len(vals) != 2 {
			return nil, fp.p.errf("store wants 2 operands, got %d", len(vals))
		}
		return &StoreInstr{anInstr: newAnInstr(), Val: vals[0], Addr: vals[1]}, nil

	case kw == "fieldaddr":
		baseStr, fieldName, ok := strings.Cut(rest, ",")
		if !ok {
			return nil, fp.p.errf("fieldaddr wants base, field")
		}
		base, err := fp.parseValue(baseStr)
		if err != nil {
			return nil, err
		}
		st, ok := Deref(base.Type()).(*StructType)
		if !ok {
			return nil, fp.p.errf("fieldaddr on non-struct-pointer %q", baseStr)
		}
		fieldName = strings.TrimSpace(fieldName)
		idx := st.FieldIndex(fieldName)
		if idx < 0 {
			return nil, fp.p.errf("struct %s has no field %q", st.Name, fieldName)
		}
		dst, err := fp.defReg(dstName, fp.p.ptrTo(st.Fields[idx].Type))
		if err != nil {
			return nil, err
		}
		return &FieldAddrInstr{anInstr: newAnInstr(), Dst: dst, Base: base, Field: idx}, nil

	case kw == "indexaddr":
		var ops [2]Value
		vals, err := fp.appendValues(ops[:0], rest)
		if err != nil {
			return nil, err
		}
		if len(vals) != 2 {
			return nil, fp.p.errf("indexaddr wants base, index")
		}
		at, ok := Deref(vals[0].Type()).(*ArrayType)
		if !ok {
			return nil, fp.p.errf("indexaddr on non-array-pointer")
		}
		dst, err := fp.defReg(dstName, fp.p.ptrTo(at.Elem))
		if err != nil {
			return nil, err
		}
		return &IndexAddrInstr{anInstr: newAnInstr(), Dst: dst, Base: vals[0], Index: vals[1]}, nil

	case kw == "cast":
		valStr, toStr, ok := strings.Cut(rest, " to ")
		if !ok {
			return nil, fp.p.errf("cast wants 'cast VAL to TYPE'")
		}
		val, err := fp.parseValue(valStr)
		if err != nil {
			return nil, err
		}
		to, err := fp.p.parseType(toStr)
		if err != nil {
			return nil, err
		}
		dst, err := fp.defReg(dstName, to)
		if err != nil {
			return nil, err
		}
		return &CastInstr{anInstr: newAnInstr(), Dst: dst, Val: val, To: to}, nil

	case kw == "br":
		target, err := fp.block(rest)
		if err != nil {
			return nil, err
		}
		return &BrInstr{anInstr: newAnInstr(), Target: target}, nil

	case kw == "condbr":
		condStr, targets, ok1 := strings.Cut(rest, ",")
		thenStr, elseStr, ok2 := strings.Cut(targets, ",")
		if !ok1 || !ok2 || strings.Contains(elseStr, ",") {
			return nil, fp.p.errf("condbr wants cond, then, else")
		}
		cond, err := fp.parseValue(condStr)
		if err != nil {
			return nil, err
		}
		then, err := fp.block(strings.TrimSpace(thenStr))
		if err != nil {
			return nil, err
		}
		els, err := fp.block(strings.TrimSpace(elseStr))
		if err != nil {
			return nil, err
		}
		return &CondBrInstr{anInstr: newAnInstr(), Cond: cond, Then: then, Else: els}, nil

	case kw == "call" || kw == "spawn":
		callee, args, err := fp.parseCallExpr(rest)
		if err != nil {
			return nil, err
		}
		if kw == "spawn" {
			dst, err := fp.defReg(dstName, Int)
			if err != nil {
				return nil, err
			}
			return &SpawnInstr{anInstr: newAnInstr(), Dst: dst, Callee: callee, Args: args}, nil
		}
		var dst *Reg
		if dstName != "" {
			ft, ok := callee.Type().(*FuncType)
			if !ok {
				return nil, fp.p.errf("call of non-function")
			}
			dst, err = fp.defReg(dstName, ft.Ret)
			if err != nil {
				return nil, err
			}
		}
		return &CallInstr{anInstr: newAnInstr(), Dst: dst, Callee: callee, Args: args}, nil

	case kw == "ret":
		if rest == "" {
			return &RetInstr{anInstr: newAnInstr()}, nil
		}
		val, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		return &RetInstr{anInstr: newAnInstr(), Val: val}, nil

	case kw == "join":
		tid, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		return &JoinInstr{anInstr: newAnInstr(), Tid: tid}, nil

	case kw == "lock" || kw == "unlock":
		addr, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		if kw == "lock" {
			return &LockInstr{anInstr: newAnInstr(), Addr: addr}, nil
		}
		return &UnlockInstr{anInstr: newAnInstr(), Addr: addr}, nil

	case kw == "wait":
		var ops [2]Value
		vals, err := fp.appendValues(ops[:0], rest)
		if err != nil {
			return nil, err
		}
		if len(vals) != 2 {
			return nil, fp.p.errf("wait wants mutex, cond")
		}
		return &WaitInstr{anInstr: newAnInstr(), Mu: vals[0], Cv: vals[1]}, nil

	case kw == "notify":
		cv, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		return &NotifyInstr{anInstr: newAnInstr(), Cv: cv}, nil

	case kw == "sleep":
		dur, err := fp.parseValue(rest)
		if err != nil {
			return nil, err
		}
		return &SleepInstr{anInstr: newAnInstr(), Dur: dur}, nil

	case kw == "assert":
		condStr, msgStr, ok := strings.Cut(rest, ",")
		if !ok {
			return nil, fp.p.errf("assert wants cond, \"msg\"")
		}
		cond, err := fp.parseValue(condStr)
		if err != nil {
			return nil, err
		}
		msg, err := strconv.Unquote(strings.TrimSpace(msgStr))
		if err != nil {
			return nil, fp.p.errf("malformed assert message %q", msgStr)
		}
		return &AssertInstr{anInstr: newAnInstr(), Cond: cond, Msg: msg}, nil

	case kw == "print":
		args, err := fp.parseValues(rest)
		if err != nil {
			return nil, err
		}
		return &PrintInstr{anInstr: newAnInstr(), Args: args}, nil

	default:
		if op, ok := binOpsByName[kw]; ok {
			var ops [2]Value
			vals, err := fp.appendValues(ops[:0], rest)
			if err != nil {
				return nil, err
			}
			if len(vals) != 2 {
				return nil, fp.p.errf("%s wants 2 operands", kw)
			}
			var t Type = Int
			if op.IsComparison() {
				t = Bool
			}
			dst, err := fp.defReg(dstName, t)
			if err != nil {
				return nil, err
			}
			return &BinInstr{anInstr: newAnInstr(), Dst: dst, BOp: op, X: vals[0], Y: vals[1]}, nil
		}
	}
	return nil, fp.p.errf("unknown instruction %q", kw)
}

// parseCallExpr parses "callee(arg, arg, ...)".
func (fp *funcParser) parseCallExpr(s string) (callee Value, args []Value, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, nil, fp.p.errf("malformed call %q", s)
	}
	callee, err = fp.parseValue(s[:open])
	if err != nil {
		return nil, nil, err
	}
	args, err = fp.parseValues(s[open+1 : len(s)-1])
	if err != nil {
		return nil, nil, err
	}
	return callee, args, nil
}
