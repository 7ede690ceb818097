package ir

import (
	"strings"
	"testing"
)

// rawModule builds an unchecked module by hand so the verifier can be
// exercised on malformed input the Builder would reject.
func rawModule(f func(m *Module)) *Module {
	m := NewModule("raw")
	f(m)
	m.Finalize()
	return m
}

func mainWith(m *Module, instrs ...Instr) *Func {
	f := &Func{Name: "main", Sig: &FuncType{Ret: Void}}
	b := &Block{Name: "entry", Parent: f, Instrs: instrs}
	f.Blocks = []*Block{b}
	m.Funcs = append(m.Funcs, f)
	return f
}

func wantVerifyError(t *testing.T, m *Module, substr string) {
	t.Helper()
	err := Verify(m)
	if err == nil {
		t.Fatalf("Verify passed, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Verify error = %v, want substring %q", err, substr)
	}
}

func TestVerifyMissingMain(t *testing.T) {
	m := rawModule(func(m *Module) {})
	wantVerifyError(t, m, "no main")
}

func TestVerifyMainWithParams(t *testing.T) {
	m := rawModule(func(m *Module) {
		f := mainWith(m, &RetInstr{anInstr: newAnInstr()})
		p := &Reg{Name: "x", Typ: Int}
		f.Params = append(f.Params, p)
		f.Sig.Params = append(f.Sig.Params, Int)
	})
	wantVerifyError(t, m, "main must take no parameters")
}

func TestVerifyEmptyBlock(t *testing.T) {
	m := rawModule(func(m *Module) {
		mainWith(m)
	})
	wantVerifyError(t, m, "empty block")
}

func TestVerifyMissingTerminator(t *testing.T) {
	m := rawModule(func(m *Module) {
		dst := &Reg{Name: "x", Typ: PtrTo(Int)}
		mainWith(m, &AllocaInstr{anInstr: newAnInstr(), Dst: dst, Elem: Int})
	})
	wantVerifyError(t, m, "does not end in a terminator")
}

func TestVerifyTerminatorMidBlock(t *testing.T) {
	m := rawModule(func(m *Module) {
		mainWith(m,
			&RetInstr{anInstr: newAnInstr()},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "middle of block")
}

func TestVerifyLoadNonPointer(t *testing.T) {
	m := rawModule(func(m *Module) {
		dst := &Reg{Name: "v", Typ: Int}
		mainWith(m,
			&LoadInstr{anInstr: newAnInstr(), Dst: dst, Addr: ConstInt(1)},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "load through non-pointer")
}

func TestVerifyStoreTypeMismatch(t *testing.T) {
	m := rawModule(func(m *Module) {
		addr := &Reg{Name: "p", Typ: PtrTo(Int)}
		mainWith(m,
			&StoreInstr{anInstr: newAnInstr(), Val: ConstBool(true), Addr: addr},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "store type mismatch")
}

func TestVerifyLockNonMutex(t *testing.T) {
	m := rawModule(func(m *Module) {
		addr := &Reg{Name: "p", Typ: PtrTo(Int)}
		mainWith(m,
			&LockInstr{anInstr: newAnInstr(), Addr: addr},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "lock on non-mutex-pointer")
}

func TestVerifyCallArity(t *testing.T) {
	m := rawModule(func(m *Module) {
		callee := &Func{Name: "f", Sig: &FuncType{Params: []Type{Int}, Ret: Void}}
		callee.Blocks = []*Block{{Name: "entry", Parent: callee,
			Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}}
		m.Funcs = append(m.Funcs, callee)
		mainWith(m,
			&CallInstr{anInstr: newAnInstr(), Callee: &FuncRef{Func: callee}},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "0 args, want 1")
}

func TestVerifyCallArgType(t *testing.T) {
	m := rawModule(func(m *Module) {
		callee := &Func{Name: "f", Sig: &FuncType{Params: []Type{Int}, Ret: Void}}
		callee.Blocks = []*Block{{Name: "entry", Parent: callee,
			Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}}
		m.Funcs = append(m.Funcs, callee)
		mainWith(m,
			&CallInstr{anInstr: newAnInstr(), Callee: &FuncRef{Func: callee},
				Args: []Value{ConstBool(true)}},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "arg 0 has type bool")
}

func TestVerifyRetMismatch(t *testing.T) {
	m := rawModule(func(m *Module) {
		f := mainWith(m, &RetInstr{anInstr: newAnInstr(), Val: ConstInt(1)})
		f.Sig.Ret = Void
	})
	wantVerifyError(t, m, "ret with value in void function")
}

func TestVerifyRetMissingValue(t *testing.T) {
	m := rawModule(func(m *Module) {
		f := &Func{Name: "f", Sig: &FuncType{Ret: Int}}
		f.Blocks = []*Block{{Name: "entry", Parent: f,
			Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}}
		m.Funcs = append(m.Funcs, f)
		mainWith(m, &RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "ret without value")
}

func TestVerifyBranchToOtherFunction(t *testing.T) {
	m := rawModule(func(m *Module) {
		other := &Func{Name: "g", Sig: &FuncType{Ret: Void}}
		ob := &Block{Name: "oentry", Parent: other,
			Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}
		other.Blocks = []*Block{ob}
		m.Funcs = append(m.Funcs, other)
		mainWith(m, &BrInstr{anInstr: newAnInstr(), Target: ob})
	})
	wantVerifyError(t, m, "another function")
}

func TestVerifyCondBrNonBool(t *testing.T) {
	m := rawModule(func(m *Module) {
		f := mainWith(m, &RetInstr{anInstr: newAnInstr()})
		b2 := &Block{Name: "b2", Parent: f,
			Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}
		b3 := &Block{Name: "b3", Parent: f, Instrs: []Instr{
			&CondBrInstr{anInstr: newAnInstr(), Cond: ConstInt(1), Then: b2, Else: b2}}}
		f.Blocks = append(f.Blocks, b2, b3)
	})
	wantVerifyError(t, m, "condbr on non-bool")
}

func TestVerifyFieldAddrOutOfRange(t *testing.T) {
	m := rawModule(func(m *Module) {
		st := &StructType{Name: "S", Fields: []Field{{"x", Int}}}
		m.Structs = append(m.Structs, st)
		base := &Reg{Name: "p", Typ: PtrTo(st)}
		dst := &Reg{Name: "f", Typ: PtrTo(Int)}
		mainWith(m,
			&FieldAddrInstr{anInstr: newAnInstr(), Dst: dst, Base: base, Field: 5},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "out of range")
}

func TestVerifyReportsMultipleErrors(t *testing.T) {
	m := rawModule(func(m *Module) {
		dst := &Reg{Name: "v", Typ: Int}
		addr := &Reg{Name: "p", Typ: PtrTo(Int)}
		mainWith(m,
			&LoadInstr{anInstr: newAnInstr(), Dst: dst, Addr: ConstInt(1)},
			&LockInstr{anInstr: newAnInstr(), Addr: addr},
			&RetInstr{anInstr: newAnInstr()})
	})
	err := Verify(m)
	if err == nil {
		t.Fatal("want errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "load through non-pointer") || !strings.Contains(msg, "lock on non-mutex") {
		t.Fatalf("expected both errors, got: %v", msg)
	}
}

func TestVerifyAcceptsValidModule(t *testing.T) {
	m := mustParse(t, sampleSrc)
	if err := Verify(m); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

// The rejections below are every module the bytecode compiler could
// not encode, so a Verify-clean module always compiles.

func TestVerifyArrayLengthTooLong(t *testing.T) {
	b := NewBuilder("uncompilable")
	f := b.Func("main", Void)
	e := f.Block("entry")
	arr := e.Alloca(ArrayOf(Int, int64(1)<<33))
	p := e.IndexAddr(arr, ConstInt(0))
	e.Store(ConstInt(42), p)
	e.Print(e.Load(p))
	e.RetVoid()
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "length outside [0, 2147483647]") {
		t.Fatalf("Build error = %v, want an array length rejection", err)
	}
}

func TestVerifyNegativeArrayLength(t *testing.T) {
	m := rawModule(func(m *Module) {
		at := ArrayOf(Int, -3)
		mainWith(m,
			&AllocaInstr{anInstr: newAnInstr(), Dst: &Reg{Name: "a", Typ: PtrTo(at)}, Elem: at},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "length outside")
}

// TestVerifyNestedArrayTooLarge: every length fits an int32 but the
// size in words does not, and its size in bytes would overflow int64.
// The type is reported once, though two instructions use it.
func TestVerifyNestedArrayTooLarge(t *testing.T) {
	at := ArrayOf(ArrayOf(ArrayOf(Int, 4), 1<<31-1), 1<<31-1)
	m := rawModule(func(m *Module) {
		a := &Reg{Name: "a", Typ: PtrTo(at)}
		mainWith(m,
			&AllocaInstr{anInstr: newAnInstr(), Dst: a, Elem: at},
			&IndexAddrInstr{anInstr: newAnInstr(), Dst: &Reg{Name: "p", Typ: PtrTo(at.Elem)}, Base: a, Index: ConstInt(0)},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "larger than 2147483647 words")
	if n := strings.Count(Verify(m).Error(), at.String()+" is larger"); n != 1 {
		t.Errorf("%s reported %d times, want once", at, n)
	}
}

// TestVerifyFieldOffsetTooLarge: a field past 2^31-1 words has an
// offset no operand word can carry.
func TestVerifyFieldOffsetTooLarge(t *testing.T) {
	m := rawModule(func(m *Module) {
		st := &StructType{Name: "S", Fields: []Field{{"big", ArrayOf(Int, 1<<31-1)}, {"x", Int}}}
		m.Structs = append(m.Structs, st)
		mainWith(m,
			&FieldAddrInstr{anInstr: newAnInstr(), Dst: &Reg{Name: "f", Typ: PtrTo(Int)},
				Base: &Reg{Name: "p", Typ: PtrTo(st)}, Field: 1},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "type S is larger than")
}

func TestVerifyStructContainsItself(t *testing.T) {
	m := rawModule(func(m *Module) {
		st := &StructType{Name: "S"}
		st.Fields = []Field{{"x", Int}, {"self", st}}
		m.Structs = append(m.Structs, st)
		mainWith(m, &RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "struct S contains itself")
}

func TestVerifyForeignFuncRef(t *testing.T) {
	other := &Func{Name: "elsewhere", Sig: &FuncType{Ret: Void}}
	other.Blocks = []*Block{{Name: "entry", Parent: other,
		Instrs: []Instr{&RetInstr{anInstr: newAnInstr()}}}}
	m := rawModule(func(m *Module) {
		mainWith(m,
			&CallInstr{anInstr: newAnInstr(), Callee: &FuncRef{Func: other}},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "function elsewhere of another module")
}

func TestVerifyForeignGlobalRef(t *testing.T) {
	g := &Global{Name: "elsewhere", Typ: Int}
	m := rawModule(func(m *Module) {
		mainWith(m,
			&StoreInstr{anInstr: newAnInstr(), Val: ConstInt(1), Addr: &GlobalRef{Global: g}},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "global @elsewhere of another module")
}

func TestVerifyUnknownBinOp(t *testing.T) {
	m := rawModule(func(m *Module) {
		mainWith(m,
			&BinInstr{anInstr: newAnInstr(), Dst: &Reg{Name: "x", Typ: Int}, BOp: Ge + 1,
				X: ConstInt(1), Y: ConstInt(2)},
			&RetInstr{anInstr: newAnInstr()})
	})
	wantVerifyError(t, m, "unknown binary operator 16")
}
