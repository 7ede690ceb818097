package ir

import (
	"fmt"
	"strings"
)

// referencePrint is the fmt-based printer that Print replaced, kept as
// its oracle: Print must match it byte for byte on every module,
// because a tenant's id is the SHA-256 of the printed text and a
// restored tenant re-checks that id when it loads. The instructions it
// used to render through their String methods are rendered here by
// those methods' former fmt bodies, so the oracle shares no
// instruction rendering with Print. Like Print, it writes a typed null
// as "null:T" in every operand position but a callee's, so that every
// printed module reparses.
func referencePrint(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, st := range m.Structs {
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "struct %s {\n", st.Name)
		for _, f := range st.Fields {
			fmt.Fprintf(&sb, "  %s: %s\n", f.Name, f.Type)
		}
		sb.WriteString("}\n")
	}
	if len(m.Globals) > 0 {
		sb.WriteString("\n")
	}
	for _, g := range m.Globals {
		if g.Init != nil {
			fmt.Fprintf(&sb, "global %s: %s = %d\n", g.Name, g.Typ, g.Init.Val)
		} else {
			fmt.Fprintf(&sb, "global %s: %s\n", g.Name, g.Typ)
		}
	}
	for _, f := range m.Funcs {
		sb.WriteString("\n")
		sb.WriteString(refFuncHeader(f))
		sb.WriteString(" {\n")
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s:\n", b.Name)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, "  %s\n", refInstr(in))
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func refFuncHeader(f *Func) string {
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s: %s", p.Name, p.Typ)
	}
	h := fmt.Sprintf("func %s(%s)", f.Name, strings.Join(params, ", "))
	if f.Sig.Ret != nil && f.Sig.Ret.Kind() != KindVoid {
		h += " " + f.Sig.Ret.String()
	}
	return h
}

func refInstr(in Instr) string {
	switch i := in.(type) {
	case *StoreInstr:
		return fmt.Sprintf("store %s, %s", refOperand(i.Val), refOperand(i.Addr))
	case *LoadInstr:
		return fmt.Sprintf("%s = load %s", i.Dst, refOperand(i.Addr))
	case *BinInstr:
		return fmt.Sprintf("%s = %s %s, %s", i.Dst, i.BOp, refOperand(i.X), refOperand(i.Y))
	case *CallInstr:
		s := fmt.Sprintf("call %s(%s)", refCallee(i.Callee), refOperands(i.Args))
		if i.Dst != nil {
			s = i.Dst.String() + " = " + s
		}
		return s
	case *SpawnInstr:
		return fmt.Sprintf("%s = spawn %s(%s)", i.Dst, refCallee(i.Callee), refOperands(i.Args))
	case *RetInstr:
		if i.Val == nil {
			return "ret"
		}
		return "ret " + refOperand(i.Val)
	case *CondBrInstr:
		return fmt.Sprintf("condbr %s, %s, %s", refOperand(i.Cond), i.Then.Name, i.Else.Name)
	case *AssertInstr:
		return fmt.Sprintf("assert %s, %q", refOperand(i.Cond), i.Msg)
	case *PrintInstr:
		return "print " + refOperands(i.Args)
	case *SleepInstr:
		return "sleep " + refOperand(i.Dur)
	case *JoinInstr:
		return "join " + refOperand(i.Tid)
	case *LockInstr:
		return "lock " + refOperand(i.Addr)
	case *UnlockInstr:
		return "unlock " + refOperand(i.Addr)
	case *WaitInstr:
		return fmt.Sprintf("wait %s, %s", refOperand(i.Mu), refOperand(i.Cv))
	case *NotifyInstr:
		return "notify " + refOperand(i.Cv)
	case *FieldAddrInstr:
		name := fmt.Sprintf("#%d", i.Field)
		if st := i.StructType(); st != nil && i.Field < len(st.Fields) {
			name = st.Fields[i.Field].Name
		}
		return fmt.Sprintf("%s = fieldaddr %s, %s", i.Dst, refOperand(i.Base), name)
	case *IndexAddrInstr:
		return fmt.Sprintf("%s = indexaddr %s, %s", i.Dst, refOperand(i.Base), refOperand(i.Index))
	case *CastInstr:
		return fmt.Sprintf("%s = cast %s to %s", i.Dst, refOperand(i.Val), i.To)
	case *AllocaInstr:
		return fmt.Sprintf("%s = alloca %s", i.Dst, i.Elem)
	case *NewInstr:
		return fmt.Sprintf("%s = new %s", i.Dst, i.Elem)
	case *BrInstr:
		return "br " + i.Target.Name
	}
	panic(fmt.Sprintf("refInstr: unhandled %T", in))
}

func refOperands(vs []Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = refOperand(v)
	}
	return strings.Join(parts, ", ")
}

func refOperand(v Value) string {
	if c, ok := v.(*Const); ok && c.Typ.Kind() == KindPtr && c.Val == 0 {
		return "null:" + c.Typ.String()
	}
	return v.String()
}

func refCallee(v Value) string {
	if fr, ok := v.(*FuncRef); ok {
		return fr.Func.Name
	}
	return v.String()
}
