package ir

import (
	"errors"
	"fmt"
	"math"
)

// Verify checks the structural and type invariants of a module:
//
//   - every block is non-empty and ends in exactly one terminator;
//   - branch targets belong to the same function;
//   - loads, stores, locks, unlocks and field/index address
//     computations operate on operands of pointer type;
//   - lock/unlock pointers point at mutexes;
//   - direct calls and spawns match the callee's signature;
//   - return values match the function's return type;
//   - struct field indices are in range;
//   - binary operators are known;
//   - function and global operands belong to the module;
//   - every array and struct fits the bytecode engine's int32
//     operand words: at most 2^31-1 words in size and 2^31-1
//     elements per array, with no negative length and no struct
//     that contains itself;
//   - a function named main with no parameters exists.
//
// Every module that passes can be compiled to bytecode.
//
// Verify returns an error joining every violation found.
func Verify(m *Module) error {
	var errs []error
	report := func(f *Func, b *Block, format string, args ...any) {
		where := ""
		if f != nil {
			where = f.Name
			if b != nil {
				where += ":" + b.Name
			}
			where += ": "
		}
		errs = append(errs, fmt.Errorf("%s%s", where, fmt.Sprintf(format, args...)))
	}

	main := m.FuncByName("main")
	if main == nil {
		report(nil, nil, "module %s has no main function", m.Name)
	} else if len(main.Params) != 0 {
		report(main, nil, "main must take no parameters")
	}

	s := newModuleScope(m, report)
	for _, st := range m.Structs {
		if len(st.Fields) == 0 {
			report(nil, nil, "struct %s has no fields (declared but never defined?)", st.Name)
		}
		s.words(nil, nil, st)
	}
	for _, g := range m.Globals {
		s.words(nil, nil, g.Typ)
	}

	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			report(f, nil, "function has no blocks")
			continue
		}
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				report(f, b, "empty block")
				continue
			}
			if b.Terminator() == nil {
				report(f, b, "block does not end in a terminator")
			}
			for idx, in := range b.Instrs {
				if IsTerminator(in) && idx != len(b.Instrs)-1 {
					report(f, b, "terminator %q in middle of block", in)
				}
				verifyInstr(f, b, in, s)
			}
		}
	}
	return errors.Join(errs...)
}

// maxWords bounds every aggregate's size in words and every array's
// length: the bytecode engine carries allocation sizes, field offsets,
// array lengths and element sizes in int32 operand words.
const maxWords = math.MaxInt32

// reporter records one violation, located at a function and block
// when they are non-nil.
type reporter = func(f *Func, b *Block, format string, args ...any)

// moduleScope is what Verify checks operands and types against: the
// module's own functions and globals, and the size in words of each
// aggregate type checked so far.
type moduleScope struct {
	funcs   map[*Func]bool
	globals map[*Global]bool
	sizes   map[Type]int64
	report  reporter
}

func newModuleScope(m *Module, report reporter) *moduleScope {
	s := &moduleScope{
		funcs:   make(map[*Func]bool, len(m.Funcs)),
		globals: make(map[*Global]bool, len(m.Globals)),
		sizes:   make(map[Type]int64),
		report:  report,
	}
	for _, f := range m.Funcs {
		s.funcs[f] = true
	}
	for _, g := range m.Globals {
		s.globals[g] = true
	}
	return s
}

// inProgress marks an aggregate whose size is being computed, so a
// struct that contains itself is reported instead of recursing.
const inProgress = -1

// words returns t's size in words (Size/8) and reports, once per type,
// an array or struct larger than maxWords words, an array length
// outside [0, maxWords], or a struct that contains itself. Sizes
// saturate at maxWords+1, so nested arrays cannot overflow int64.
func (s *moduleScope) words(f *Func, b *Block, t Type) int64 {
	switch t.(type) {
	case *ArrayType, *StructType:
	default:
		return t.Size() / 8
	}
	if w, ok := s.sizes[t]; ok {
		if w == inProgress {
			s.report(f, b, "struct %s contains itself", t)
			s.sizes[t] = maxWords + 1
			return maxWords + 1
		}
		return w
	}
	s.sizes[t] = inProgress
	var w int64
	switch t := t.(type) {
	case *ArrayType:
		elem := s.words(f, b, t.Elem)
		if t.Len < 0 || t.Len > maxWords {
			s.report(f, b, "array type %s has a length outside [0, %d]", t, maxWords)
			s.sizes[t] = maxWords + 1
			return maxWords + 1
		}
		w = min(t.Len*elem, maxWords+1)
	case *StructType:
		for _, fld := range t.Fields {
			w = min(w+s.words(f, b, fld.Type), maxWords+1)
		}
	}
	if w > maxWords && s.sizes[t] == inProgress {
		s.report(f, b, "type %s is larger than %d words", t, maxWords)
	}
	s.sizes[t] = w
	return w
}

// owned reports every function or global operand among vs that
// belongs to another module.
func (s *moduleScope) owned(f *Func, b *Block, vs ...Value) {
	for _, v := range vs {
		switch x := v.(type) {
		case *FuncRef:
			if !s.funcs[x.Func] {
				s.report(f, b, "reference to function %s of another module", x.Func.Name)
			}
		case *GlobalRef:
			if !s.globals[x.Global] {
				s.report(f, b, "reference to global @%s of another module", x.Global.Name)
			}
		}
	}
}

func verifyInstr(f *Func, b *Block, in Instr, s *moduleScope) {
	report := s.report
	switch i := in.(type) {
	case *AllocaInstr:
		s.words(f, b, i.Elem)
	case *NewInstr:
		s.words(f, b, i.Elem)
	case *CastInstr:
		s.owned(f, b, i.Val)
	case *PrintInstr:
		s.owned(f, b, i.Args...)
	case *LoadInstr:
		s.owned(f, b, i.Addr)
		elem := Deref(i.Addr.Type())
		if elem == nil {
			report(f, b, "load through non-pointer %s", i.Addr)
		} else if !isScalar(elem) {
			report(f, b, "load of aggregate type %s (loads move one word)", elem)
		} else if !TypesEqual(elem, i.Dst.Typ) {
			report(f, b, "load type mismatch: %s into %%%s of type %s", elem, i.Dst.Name, i.Dst.Typ)
		}
	case *StoreInstr:
		s.owned(f, b, i.Val, i.Addr)
		elem := Deref(i.Addr.Type())
		if elem == nil {
			report(f, b, "store through non-pointer %s", i.Addr)
		} else if !isScalar(elem) {
			report(f, b, "store of aggregate type %s (stores move one word)", elem)
		} else if !TypesEqual(elem, i.Val.Type()) {
			report(f, b, "store type mismatch: %s into *%s", i.Val.Type(), elem)
		}
	case *FieldAddrInstr:
		s.owned(f, b, i.Base)
		st := i.StructType()
		if st == nil {
			report(f, b, "fieldaddr on non-struct-pointer %s", i.Base)
		} else if i.Field < 0 || i.Field >= len(st.Fields) {
			report(f, b, "fieldaddr index %d out of range for %s", i.Field, st.Name)
		} else {
			s.words(f, b, st)
		}
	case *IndexAddrInstr:
		s.owned(f, b, i.Base, i.Index)
		if at, ok := Deref(i.Base.Type()).(*ArrayType); ok {
			s.words(f, b, at)
		} else {
			report(f, b, "indexaddr on non-array-pointer %s", i.Base)
		}
		if i.Index.Type().Kind() != KindInt {
			report(f, b, "indexaddr with non-int index %s", i.Index)
		}
	case *BinInstr:
		s.owned(f, b, i.X, i.Y)
		if i.BOp < 0 || int(i.BOp) >= len(binNames) {
			report(f, b, "unknown binary operator %d", int(i.BOp))
		} else if i.BOp.IsComparison() {
			if i.Dst.Typ.Kind() != KindBool {
				report(f, b, "comparison %s must define a bool register", i.BOp)
			}
		} else if i.Dst.Typ.Kind() != KindInt {
			report(f, b, "arithmetic %s must define an int register", i.BOp)
		}
	case *CondBrInstr:
		s.owned(f, b, i.Cond)
		if i.Cond.Type().Kind() != KindBool {
			report(f, b, "condbr on non-bool %s", i.Cond)
		}
		verifyTarget(f, b, i.Then, report)
		verifyTarget(f, b, i.Else, report)
	case *BrInstr:
		verifyTarget(f, b, i.Target, report)
	case *CallInstr:
		s.owned(f, b, i.Callee)
		s.owned(f, b, i.Args...)
		verifyCall(f, b, i.Callee, i.Args, i.Dst, report)
	case *SpawnInstr:
		s.owned(f, b, i.Callee)
		s.owned(f, b, i.Args...)
		verifyCall(f, b, i.Callee, i.Args, nil, report)
	case *RetInstr:
		if i.Val != nil {
			s.owned(f, b, i.Val)
		}
		want := f.Sig.Ret
		if want == nil || want.Kind() == KindVoid {
			if i.Val != nil {
				report(f, b, "ret with value in void function")
			}
		} else {
			if i.Val == nil {
				report(f, b, "ret without value in %s function", want)
			} else if !TypesEqual(i.Val.Type(), want) {
				report(f, b, "ret type %s, want %s", i.Val.Type(), want)
			}
		}
	case *LockInstr:
		s.owned(f, b, i.Addr)
		verifyMutexPtr(f, b, i.Addr, "lock", report)
	case *UnlockInstr:
		s.owned(f, b, i.Addr)
		verifyMutexPtr(f, b, i.Addr, "unlock", report)
	case *WaitInstr:
		s.owned(f, b, i.Mu, i.Cv)
		verifyMutexPtr(f, b, i.Mu, "wait", report)
		verifyCondPtr(f, b, i.Cv, "wait", report)
	case *NotifyInstr:
		s.owned(f, b, i.Cv)
		verifyCondPtr(f, b, i.Cv, "notify", report)
	case *JoinInstr:
		s.owned(f, b, i.Tid)
		if i.Tid.Type().Kind() != KindInt {
			report(f, b, "join on non-int %s", i.Tid)
		}
	case *SleepInstr:
		s.owned(f, b, i.Dur)
		if i.Dur.Type().Kind() != KindInt {
			report(f, b, "sleep with non-int duration %s", i.Dur)
		}
	case *AssertInstr:
		s.owned(f, b, i.Cond)
		if i.Cond.Type().Kind() != KindBool {
			report(f, b, "assert on non-bool %s", i.Cond)
		}
	}
}

// isScalar reports whether a type occupies one word and may be moved
// by a single load or store.
func isScalar(t Type) bool {
	switch t.Kind() {
	case KindInt, KindBool, KindPtr, KindMutex, KindFunc:
		return true
	}
	return false
}

func verifyTarget(f *Func, b *Block, target *Block, report reporter) {
	if target == nil {
		report(f, b, "branch to nil block")
		return
	}
	for _, blk := range f.Blocks {
		if blk == target {
			return
		}
	}
	report(f, b, "branch to block %s of another function", target.Name)
}

func verifyMutexPtr(f *Func, b *Block, addr Value, op string, report reporter) {
	elem := Deref(addr.Type())
	if elem == nil || elem.Kind() != KindMutex {
		report(f, b, "%s on non-mutex-pointer %s (type %s)", op, addr, addr.Type())
	}
}

func verifyCondPtr(f *Func, b *Block, addr Value, op string, report reporter) {
	elem := Deref(addr.Type())
	if elem == nil || elem.Kind() != KindCond {
		report(f, b, "%s on non-cond-pointer %s (type %s)", op, addr, addr.Type())
	}
}

func verifyCall(f *Func, b *Block, callee Value, args []Value, dst *Reg, report reporter) {
	ft, ok := callee.Type().(*FuncType)
	if !ok {
		report(f, b, "call of non-function %s", callee)
		return
	}
	if len(args) != len(ft.Params) {
		report(f, b, "call %s with %d args, want %d", callee, len(args), len(ft.Params))
		return
	}
	for i, a := range args {
		if !TypesEqual(a.Type(), ft.Params[i]) {
			report(f, b, "call %s arg %d has type %s, want %s", callee, i, a.Type(), ft.Params[i])
		}
	}
	if dst != nil && (ft.Ret == nil || ft.Ret.Kind() == KindVoid) {
		report(f, b, "call %s assigns result of void function", callee)
	}
}
