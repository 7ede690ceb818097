package ir

import (
	"fmt"
)

// Op identifies the operation performed by an instruction.
type Op int

// The instruction opcodes of the IR.
const (
	OpAlloca Op = iota // frame allocation
	OpNew              // heap allocation
	OpLoad
	OpStore
	OpFieldAddr
	OpIndexAddr
	OpBin
	OpCast
	OpBr
	OpCondBr
	OpCall
	OpRet
	OpSpawn
	OpJoin
	OpLock
	OpUnlock
	OpSleep
	OpAssert
	OpPrint
	OpWait
	OpNotify
)

var opNames = [...]string{
	OpAlloca:    "alloca",
	OpNew:       "new",
	OpLoad:      "load",
	OpStore:     "store",
	OpFieldAddr: "fieldaddr",
	OpIndexAddr: "indexaddr",
	OpBin:       "bin",
	OpCast:      "cast",
	OpBr:        "br",
	OpCondBr:    "condbr",
	OpCall:      "call",
	OpRet:       "ret",
	OpSpawn:     "spawn",
	OpJoin:      "join",
	OpLock:      "lock",
	OpUnlock:    "unlock",
	OpSleep:     "sleep",
	OpAssert:    "assert",
	OpPrint:     "print",
	OpWait:      "wait",
	OpNotify:    "notify",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is the interface implemented by all instructions.
type Instr interface {
	Op() Op
	// Def returns the register the instruction assigns, or nil.
	Def() *Reg
	// Uses returns the values the instruction reads.
	Uses() []Value
	String() string

	// PC returns the module-wide program counter of the instruction,
	// assigned by Module.Finalize.
	PC() PC
	// Block returns the basic block containing the instruction.
	Block() *Block
	setPos(pc PC, b *Block)
}

// PC is a module-wide program counter identifying one static
// instruction. PCs are dense: they are assigned 0..N-1 in layout order
// by Module.Finalize, which makes them usable as slice indices.
type PC int32

// NoPC marks an instruction that has not been finalized.
const NoPC PC = -1

// anInstr carries position metadata shared by all instructions.
type anInstr struct {
	pc    PC
	block *Block
}

func (a *anInstr) PC() PC                 { return a.pc }
func (a *anInstr) Block() *Block          { return a.block }
func (a *anInstr) setPos(pc PC, b *Block) { a.pc, a.block = pc, b }
func newAnInstr() anInstr                 { return anInstr{pc: NoPC} }

// AllocaInstr allocates frame storage for one value of type Elem and
// assigns its address to Dst. Frame storage lives until the function
// returns.
type AllocaInstr struct {
	anInstr
	Dst  *Reg
	Elem Type
}

// Op implements Instr.
func (*AllocaInstr) Op() Op { return OpAlloca }

// Def implements Instr.
func (i *AllocaInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (*AllocaInstr) Uses() []Value { return nil }

func (i *AllocaInstr) String() string { return instrString(i) }

// NewInstr allocates heap storage for one value of type Elem and
// assigns its address to Dst. Heap storage lives for the rest of the
// execution.
type NewInstr struct {
	anInstr
	Dst  *Reg
	Elem Type
}

// Op implements Instr.
func (*NewInstr) Op() Op { return OpNew }

// Def implements Instr.
func (i *NewInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (*NewInstr) Uses() []Value { return nil }

func (i *NewInstr) String() string { return instrString(i) }

// LoadInstr reads the value at address Addr into Dst.
type LoadInstr struct {
	anInstr
	Dst  *Reg
	Addr Value
}

// Op implements Instr.
func (*LoadInstr) Op() Op { return OpLoad }

// Def implements Instr.
func (i *LoadInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *LoadInstr) Uses() []Value { return []Value{i.Addr} }

func (i *LoadInstr) String() string { return instrString(i) }

// StoreInstr writes Val to the address Addr.
type StoreInstr struct {
	anInstr
	Val  Value
	Addr Value
}

// Op implements Instr.
func (*StoreInstr) Op() Op { return OpStore }

// Def implements Instr.
func (*StoreInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *StoreInstr) Uses() []Value { return []Value{i.Val, i.Addr} }

func (i *StoreInstr) String() string { return instrString(i) }

// FieldAddrInstr computes the address of field Field of the struct
// pointed to by Base and assigns it to Dst (the GEP analogue).
type FieldAddrInstr struct {
	anInstr
	Dst   *Reg
	Base  Value
	Field int
}

// Op implements Instr.
func (*FieldAddrInstr) Op() Op { return OpFieldAddr }

// Def implements Instr.
func (i *FieldAddrInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *FieldAddrInstr) Uses() []Value { return []Value{i.Base} }

// StructType returns the struct type Base points to, or nil when Base
// is not a pointer-to-struct (a verifier error).
func (i *FieldAddrInstr) StructType() *StructType {
	if st, ok := Deref(i.Base.Type()).(*StructType); ok {
		return st
	}
	return nil
}

func (i *FieldAddrInstr) String() string { return instrString(i) }

// IndexAddrInstr computes the address of element Index of the array
// pointed to by Base and assigns it to Dst.
type IndexAddrInstr struct {
	anInstr
	Dst   *Reg
	Base  Value
	Index Value
}

// Op implements Instr.
func (*IndexAddrInstr) Op() Op { return OpIndexAddr }

// Def implements Instr.
func (i *IndexAddrInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *IndexAddrInstr) Uses() []Value { return []Value{i.Base, i.Index} }

func (i *IndexAddrInstr) String() string { return instrString(i) }

// BinOp identifies a binary operation.
type BinOp int

// The binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("binop(%d)", int(b))
}

// IsComparison reports whether the operator yields a bool.
func (b BinOp) IsComparison() bool { return b >= Eq }

// BinInstr computes X op Y into Dst.
type BinInstr struct {
	anInstr
	Dst  *Reg
	BOp  BinOp
	X, Y Value
}

// Op implements Instr.
func (*BinInstr) Op() Op { return OpBin }

// Def implements Instr.
func (i *BinInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *BinInstr) Uses() []Value { return []Value{i.X, i.Y} }

func (i *BinInstr) String() string { return instrString(i) }

// CastInstr reinterprets Val as type To and assigns it to Dst. Casts
// between pointer types model the C-style type punning that makes
// type-based ranking a heuristic rather than an exact filter (§4.3 of
// the paper).
type CastInstr struct {
	anInstr
	Dst *Reg
	Val Value
	To  Type
}

// Op implements Instr.
func (*CastInstr) Op() Op { return OpCast }

// Def implements Instr.
func (i *CastInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *CastInstr) Uses() []Value { return []Value{i.Val} }

func (i *CastInstr) String() string { return instrString(i) }

// BrInstr is an unconditional branch.
type BrInstr struct {
	anInstr
	Target *Block
}

// Op implements Instr.
func (*BrInstr) Op() Op { return OpBr }

// Def implements Instr.
func (*BrInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (*BrInstr) Uses() []Value { return nil }

func (i *BrInstr) String() string { return instrString(i) }

// CondBrInstr branches to Then when Cond is true, else to Else.
type CondBrInstr struct {
	anInstr
	Cond Value
	Then *Block
	Else *Block
}

// Op implements Instr.
func (*CondBrInstr) Op() Op { return OpCondBr }

// Def implements Instr.
func (*CondBrInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *CondBrInstr) Uses() []Value { return []Value{i.Cond} }

func (i *CondBrInstr) String() string { return instrString(i) }

// CallInstr calls Callee with Args; when the callee returns a value
// and Dst is non-nil the result is assigned to Dst. Callee is either a
// *FuncRef (direct call) or a register holding a function value
// (indirect call).
type CallInstr struct {
	anInstr
	Dst    *Reg
	Callee Value
	Args   []Value
}

// Op implements Instr.
func (*CallInstr) Op() Op { return OpCall }

// Def implements Instr.
func (i *CallInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *CallInstr) Uses() []Value {
	return append([]Value{i.Callee}, i.Args...)
}

// StaticCallee returns the directly-called function, or nil for an
// indirect call.
func (i *CallInstr) StaticCallee() *Func {
	if fr, ok := i.Callee.(*FuncRef); ok {
		return fr.Func
	}
	return nil
}

func (i *CallInstr) String() string { return instrString(i) }

// RetInstr returns from the current function with optional value Val.
type RetInstr struct {
	anInstr
	Val Value // nil for void returns
}

// Op implements Instr.
func (*RetInstr) Op() Op { return OpRet }

// Def implements Instr.
func (*RetInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *RetInstr) Uses() []Value {
	if i.Val == nil {
		return nil
	}
	return []Value{i.Val}
}

func (i *RetInstr) String() string { return instrString(i) }

// SpawnInstr starts a new thread running Callee(Args...) and assigns
// the new thread's id to Dst.
type SpawnInstr struct {
	anInstr
	Dst    *Reg
	Callee Value
	Args   []Value
}

// Op implements Instr.
func (*SpawnInstr) Op() Op { return OpSpawn }

// Def implements Instr.
func (i *SpawnInstr) Def() *Reg { return i.Dst }

// Uses implements Instr.
func (i *SpawnInstr) Uses() []Value {
	return append([]Value{i.Callee}, i.Args...)
}

// StaticCallee returns the directly-spawned function, or nil.
func (i *SpawnInstr) StaticCallee() *Func {
	if fr, ok := i.Callee.(*FuncRef); ok {
		return fr.Func
	}
	return nil
}

func (i *SpawnInstr) String() string { return instrString(i) }

// JoinInstr blocks until the thread identified by Tid exits.
type JoinInstr struct {
	anInstr
	Tid Value
}

// Op implements Instr.
func (*JoinInstr) Op() Op { return OpJoin }

// Def implements Instr.
func (*JoinInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *JoinInstr) Uses() []Value { return []Value{i.Tid} }

func (i *JoinInstr) String() string { return instrString(i) }

// LockInstr acquires the mutex at address Addr, blocking until it is
// available.
type LockInstr struct {
	anInstr
	Addr Value
}

// Op implements Instr.
func (*LockInstr) Op() Op { return OpLock }

// Def implements Instr.
func (*LockInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *LockInstr) Uses() []Value { return []Value{i.Addr} }

func (i *LockInstr) String() string { return instrString(i) }

// UnlockInstr releases the mutex at address Addr.
type UnlockInstr struct {
	anInstr
	Addr Value
}

// Op implements Instr.
func (*UnlockInstr) Op() Op { return OpUnlock }

// Def implements Instr.
func (*UnlockInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *UnlockInstr) Uses() []Value { return []Value{i.Addr} }

func (i *UnlockInstr) String() string { return instrString(i) }

// SleepInstr advances the executing thread's virtual time by Dur
// nanoseconds. Sleep models everything that makes real systems
// coarsely interleaved — I/O, network round trips, request parsing,
// computation between synchronization points.
type SleepInstr struct {
	anInstr
	Dur Value
}

// Op implements Instr.
func (*SleepInstr) Op() Op { return OpSleep }

// Def implements Instr.
func (*SleepInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *SleepInstr) Uses() []Value { return []Value{i.Dur} }

func (i *SleepInstr) String() string { return instrString(i) }

// AssertInstr crashes the program with Msg when Cond is false. It is
// the custom-failure hook the paper describes for non fail-stop bugs.
type AssertInstr struct {
	anInstr
	Cond Value
	Msg  string
}

// Op implements Instr.
func (*AssertInstr) Op() Op { return OpAssert }

// Def implements Instr.
func (*AssertInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *AssertInstr) Uses() []Value { return []Value{i.Cond} }

func (i *AssertInstr) String() string { return instrString(i) }

// PrintInstr appends the values of Args to the VM's output log. It
// exists for examples and debugging and has no analysis significance.
type PrintInstr struct {
	anInstr
	Args []Value
}

// Op implements Instr.
func (*PrintInstr) Op() Op { return OpPrint }

// Def implements Instr.
func (*PrintInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *PrintInstr) Uses() []Value { return i.Args }

func (i *PrintInstr) String() string { return instrString(i) }

// WaitInstr atomically releases the mutex at Mu, blocks until the
// condition variable at Cv is notified, then reacquires Mu before
// continuing. The calling thread must hold Mu. Like POSIX
// pthread_cond_wait, a notify that arrives while no thread waits is
// lost — the bug class behind lost-wakeup hangs.
type WaitInstr struct {
	anInstr
	Mu Value
	Cv Value
}

// Op implements Instr.
func (*WaitInstr) Op() Op { return OpWait }

// Def implements Instr.
func (*WaitInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *WaitInstr) Uses() []Value { return []Value{i.Mu, i.Cv} }

func (i *WaitInstr) String() string { return instrString(i) }

// NotifyInstr wakes every thread waiting on the condition variable at
// Cv (broadcast semantics). Notifies with no waiter are lost.
type NotifyInstr struct {
	anInstr
	Cv Value
}

// Op implements Instr.
func (*NotifyInstr) Op() Op { return OpNotify }

// Def implements Instr.
func (*NotifyInstr) Def() *Reg { return nil }

// Uses implements Instr.
func (i *NotifyInstr) Uses() []Value { return []Value{i.Cv} }

func (i *NotifyInstr) String() string { return instrString(i) }

// IsTerminator reports whether the instruction ends a basic block.
func IsTerminator(in Instr) bool {
	switch in.Op() {
	case OpBr, OpCondBr, OpRet:
		return true
	}
	return false
}

// IsMemAccess reports whether the instruction reads or writes memory
// through a pointer operand (the accesses that can participate in
// order and atomicity violations).
func IsMemAccess(in Instr) bool {
	op := in.Op()
	return op == OpLoad || op == OpStore
}

// IsSyncOp reports whether the instruction is a synchronization
// operation (the accesses that can participate in deadlocks and
// lost-wakeup hangs).
func IsSyncOp(in Instr) bool {
	switch in.Op() {
	case OpLock, OpUnlock, OpWait, OpNotify:
		return true
	}
	return false
}

// AccessedPointer returns the pointer operand of a memory access or
// synchronization instruction, or nil for other instructions. This is
// the operand whose points-to set drives Lazy Diagnosis.
func AccessedPointer(in Instr) Value {
	switch i := in.(type) {
	case *LoadInstr:
		return i.Addr
	case *StoreInstr:
		return i.Addr
	case *LockInstr:
		return i.Addr
	case *UnlockInstr:
		return i.Addr
	case *WaitInstr:
		// The raced-on synchronization object is the condition
		// variable, not the guarding mutex.
		return i.Cv
	case *NotifyInstr:
		return i.Cv
	}
	return nil
}
