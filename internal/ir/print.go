package ir

import "strconv"

// Print renders the module in the textual IR format accepted by Parse.
// It is one append pass over a byte buffer. A tenant's id is the
// SHA-256 of this text, so the output must stay byte-identical across
// versions: print_ref_test.go keeps the printer this one replaced as
// its oracle.
func Print(m *Module) string {
	// About 25 bytes per instruction line in the corpus; 32 covers
	// most modules in one allocation.
	size := 256
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			size += 16 + 32*len(b.Instrs)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, "module "...)
	b = append(b, m.Name...)
	b = append(b, '\n')
	for _, st := range m.Structs {
		b = append(b, "\nstruct "...)
		b = append(b, st.Name...)
		b = append(b, " {\n"...)
		for _, f := range st.Fields {
			b = append(b, "  "...)
			b = append(b, f.Name...)
			b = append(b, ": "...)
			b = appendType(b, f.Type)
			b = append(b, '\n')
		}
		b = append(b, "}\n"...)
	}
	if len(m.Globals) > 0 {
		b = append(b, '\n')
	}
	for _, g := range m.Globals {
		b = append(b, "global "...)
		b = append(b, g.Name...)
		b = append(b, ": "...)
		b = appendType(b, g.Typ)
		if g.Init != nil {
			b = append(b, " = "...)
			b = strconv.AppendInt(b, g.Init.Val, 10)
		}
		b = append(b, '\n')
	}
	for _, f := range m.Funcs {
		b = append(b, "\nfunc "...)
		b = append(b, f.Name...)
		b = append(b, '(')
		for i, p := range f.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, p.Name...)
			b = append(b, ": "...)
			b = appendType(b, p.Typ)
		}
		b = append(b, ')')
		if f.Sig.Ret != nil && f.Sig.Ret.Kind() != KindVoid {
			b = append(b, ' ')
			b = appendType(b, f.Sig.Ret)
		}
		b = append(b, " {\n"...)
		for _, bl := range f.Blocks {
			b = append(b, bl.Name...)
			b = append(b, ":\n"...)
			for _, in := range bl.Instrs {
				b = append(b, "  "...)
				b = appendInstr(b, in, true)
				b = append(b, '\n')
			}
		}
		b = append(b, "}\n"...)
	}
	// A copy of exactly the text: tenants keep it, and the buffer's
	// spare capacity would be kept with it.
	return string(b)
}

// instrString renders in as its String method does.
func instrString(in Instr) string {
	var buf [64]byte
	return string(appendInstr(buf[:0], in, false))
}

// appendInstr appends the text of in: Print's form when parseable is
// set, String's form otherwise. They differ in one thing: Print writes
// a typed null operand as "null:T", so the parser can recover its
// type, and String writes "null". A callee is always written in
// String's form: a null callee does not verify.
func appendInstr(b []byte, in Instr, parseable bool) []byte {
	switch i := in.(type) {
	case *AllocaInstr:
		return appendType(append(appendDst(b, i.Dst), "alloca "...), i.Elem)
	case *NewInstr:
		return appendType(append(appendDst(b, i.Dst), "new "...), i.Elem)
	case *LoadInstr:
		return appendValue(append(appendDst(b, i.Dst), "load "...), i.Addr, parseable)
	case *StoreInstr:
		return appendValues(append(b, "store "...), parseable, i.Val, i.Addr)
	case *FieldAddrInstr:
		b = appendValue(append(appendDst(b, i.Dst), "fieldaddr "...), i.Base, parseable)
		b = append(b, ", "...)
		if st := i.StructType(); st != nil && i.Field < len(st.Fields) {
			return append(b, st.Fields[i.Field].Name...)
		}
		return strconv.AppendInt(append(b, '#'), int64(i.Field), 10)
	case *IndexAddrInstr:
		return appendValues(append(appendDst(b, i.Dst), "indexaddr "...), parseable, i.Base, i.Index)
	case *BinInstr:
		b = append(append(appendDst(b, i.Dst), i.BOp.String()...), ' ')
		return appendValues(b, parseable, i.X, i.Y)
	case *CastInstr:
		b = appendValue(append(appendDst(b, i.Dst), "cast "...), i.Val, parseable)
		return appendType(append(b, " to "...), i.To)
	case *BrInstr:
		return append(append(b, "br "...), i.Target.Name...)
	case *CondBrInstr:
		b = appendValue(append(b, "condbr "...), i.Cond, parseable)
		b = append(append(b, ", "...), i.Then.Name...)
		return append(append(b, ", "...), i.Else.Name...)
	case *CallInstr:
		if i.Dst != nil {
			b = appendDst(b, i.Dst)
		}
		return appendCall(append(b, "call "...), i.Callee, i.Args, parseable)
	case *SpawnInstr:
		return appendCall(append(appendDst(b, i.Dst), "spawn "...), i.Callee, i.Args, parseable)
	case *RetInstr:
		if i.Val == nil {
			return append(b, "ret"...)
		}
		return appendValue(append(b, "ret "...), i.Val, parseable)
	case *JoinInstr:
		return appendValue(append(b, "join "...), i.Tid, parseable)
	case *LockInstr:
		return appendValue(append(b, "lock "...), i.Addr, parseable)
	case *UnlockInstr:
		return appendValue(append(b, "unlock "...), i.Addr, parseable)
	case *SleepInstr:
		return appendValue(append(b, "sleep "...), i.Dur, parseable)
	case *AssertInstr:
		b = appendValue(append(b, "assert "...), i.Cond, parseable)
		return strconv.AppendQuote(append(b, ", "...), i.Msg)
	case *PrintInstr:
		return appendValues(append(b, "print "...), parseable, i.Args...)
	case *WaitInstr:
		return appendValues(append(b, "wait "...), parseable, i.Mu, i.Cv)
	case *NotifyInstr:
		return appendValue(append(b, "notify "...), i.Cv, parseable)
	}
	return append(b, in.String()...)
}

// appendDst appends "%dst = ".
func appendDst(b []byte, r *Reg) []byte {
	b = append(append(b, '%'), r.Name...)
	return append(b, " = "...)
}

// appendCall appends "callee(arg, arg)".
func appendCall(b []byte, callee Value, args []Value, parseable bool) []byte {
	b = append(appendValue(b, callee, false), '(')
	return append(appendValues(b, parseable, args...), ')')
}

// appendValues appends vs separated by ", ".
func appendValues(b []byte, parseable bool, vs ...Value) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendValue(b, v, parseable)
	}
	return b
}

// appendValue appends v as its String method renders it, except that
// a typed null is written "null:T" when parseable is set.
func appendValue(b []byte, v Value, parseable bool) []byte {
	switch v := v.(type) {
	case *Reg:
		return append(append(b, '%'), v.Name...)
	case *GlobalRef:
		return append(append(b, '@'), v.Global.Name...)
	case *FuncRef:
		return append(b, v.Func.Name...)
	case *Const:
		switch v.Typ.Kind() {
		case KindBool:
			if v.Val != 0 {
				return append(b, "true"...)
			}
			return append(b, "false"...)
		case KindPtr:
			if v.Val != 0 {
				return strconv.AppendInt(append(b, "ptr:"...), v.Val, 10)
			}
			if parseable {
				return appendType(append(b, "null:"...), v.Typ)
			}
			return append(b, "null"...)
		}
		return strconv.AppendInt(b, v.Val, 10)
	}
	return append(b, v.String()...)
}

// appendType appends t as its String method renders it.
func appendType(b []byte, t Type) []byte {
	switch t := t.(type) {
	case *PtrType:
		return appendType(append(b, '*'), t.Elem)
	case *ArrayType:
		b = strconv.AppendInt(append(b, '['), t.Len, 10)
		return appendType(append(b, ']'), t.Elem)
	case *StructType:
		return append(b, t.Name...)
	}
	return append(b, t.String()...)
}
