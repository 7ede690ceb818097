package bytecode

import (
	"fmt"
	"math"

	"snorlax/internal/ir"
)

// FuncInfo is the compiled metadata of one IR function.
type FuncInfo struct {
	Name string
	// Start is the code index of the function's first instruction.
	Start int32
	// NumRegs is the frame size in registers.
	NumRegs int32
	// Params holds the register index of each parameter in order.
	Params []int32
	// EntryPC is the PC of the function's first instruction (the
	// destination of call and thread-start trace events).
	EntryPC ir.PC
}

// Program is one module compiled to flat 32-bit word code.
type Program struct {
	// Mod is the source module; PCs in Code index into it.
	Mod *ir.Module
	// Version is the module version the program was compiled against.
	Version uint64
	// Code is the flat instruction stream: [opcode pc operand...]*.
	Code []int32
	// Pool holds every compile-time-resolved constant: IR literals,
	// global addresses, and encoded function values. Operand word w<0
	// names Pool[^w].
	Pool []int64
	// Strings holds assertion messages; Assert's msgIndex names one.
	Strings []string
	// Funcs is indexed like Mod.Funcs.
	Funcs []FuncInfo
	// IdxOfPC maps each ir.PC to the code index of its compiled
	// instruction — the PC↔bytecode mapping used by disassembly and
	// by engines that must materialize a frame at a given PC.
	IdxOfPC []int32
	// GlobalAddrs holds the word address of each module global in
	// declaration order; the compiler derives them from the VM's
	// deterministic bump allocator, and the engine asserts they match
	// its own allocation before trusting pool-resolved addresses.
	GlobalAddrs []int64
}

// compiler accumulates one Program.
type compiler struct {
	mod      *ir.Module
	p        *Program
	poolIdx  map[int64]int32
	strIdx   map[string]int32
	blockOff map[*ir.Block]int32
	gaddr    map[*ir.Global]int64
}

// Compile translates a module to bytecode. The module is finalized if
// it is not already. Compile is total over ir.Verify-clean modules,
// which every ir.Parse and ir.Builder module is: Verify rejects each
// module that 32-bit operand words could not encode, so Compile does
// not check again. It panics on an instruction or value it does not
// know, or a code array or pool past what int32 indices address; a
// module text within the wire frame limit cannot reach either size.
func Compile(mod *ir.Module) *Program {
	if !mod.Finalized() {
		mod.Finalize()
	}
	c := &compiler{
		mod: mod,
		p: &Program{
			Mod:     mod,
			Version: mod.Version(),
			IdxOfPC: make([]int32, mod.NumInstrs()),
		},
		poolIdx:  make(map[int64]int32),
		strIdx:   make(map[string]int32),
		blockOff: make(map[*ir.Block]int32),
		gaddr:    make(map[*ir.Global]int64),
	}
	// Global addresses replicate the VM's startup allocation: a bump
	// allocator starting at word 1, one allocation per global in
	// declaration order.
	next := int64(1)
	for _, g := range mod.Globals {
		c.gaddr[g] = next
		c.p.GlobalAddrs = append(c.p.GlobalAddrs, next)
		next += wordsOf(g.Typ)
	}
	// Pass 1: lay out code offsets so branches can refer forward.
	off := int64(0)
	for _, f := range mod.Funcs {
		info := FuncInfo{
			Name:    f.Name,
			Start:   int32(off),
			NumRegs: int32(len(f.Regs)),
			EntryPC: f.Blocks[0].FirstPC(),
		}
		for _, p := range f.Params {
			info.Params = append(info.Params, int32(p.Index))
		}
		c.p.Funcs = append(c.p.Funcs, info)
		for _, b := range f.Blocks {
			c.blockOff[b] = int32(off)
			for _, in := range b.Instrs {
				off += int64(width(in))
			}
		}
		if off > math.MaxInt32 {
			panic(fmt.Sprintf("bytecode: module %s exceeds 2^31 code words", mod.Name))
		}
	}
	// Pass 2: emit.
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				c.emit(in)
			}
		}
	}
	return c.p
}

// wordsOf mirrors the VM's slot count for a type.
func wordsOf(t ir.Type) int64 {
	w := t.Size() / 8
	if w <= 0 {
		w = 1
	}
	return w
}

// width returns the number of code words instruction in compiles to.
func width(in ir.Instr) int {
	switch i := in.(type) {
	case *ir.RetInstr:
		if i.Val == nil {
			return 2
		}
		return 3
	case *ir.JoinInstr, *ir.LockInstr, *ir.UnlockInstr, *ir.NotifyInstr, *ir.SleepInstr:
		return 3
	case *ir.AllocaInstr, *ir.NewInstr, *ir.LoadInstr, *ir.StoreInstr, *ir.CastInstr,
		*ir.BrInstr, *ir.WaitInstr, *ir.AssertInstr:
		return 4
	case *ir.FieldAddrInstr, *ir.BinInstr:
		return 5
	case *ir.IndexAddrInstr, *ir.CondBrInstr:
		return 7
	case *ir.CallInstr:
		return 5 + len(i.Args)
	case *ir.SpawnInstr:
		return 5 + len(i.Args)
	case *ir.PrintInstr:
		return 3 + len(i.Args)
	}
	panic(fmt.Sprintf("bytecode: unsupported instruction %s", in))
}

// pool interns v in the constant pool and returns its operand word
// (the ^index encoding, always negative).
func (c *compiler) pool(v int64) int32 {
	if idx, ok := c.poolIdx[v]; ok {
		return ^idx
	}
	if len(c.p.Pool) > math.MaxInt32/2 {
		panic("bytecode: constant pool overflow")
	}
	idx := int32(len(c.p.Pool))
	c.p.Pool = append(c.p.Pool, v)
	c.poolIdx[v] = idx
	return ^idx
}

// operand encodes a value operand: register index when non-negative,
// pool reference when negative.
func (c *compiler) operand(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Reg:
		return int32(x.Index)
	case *ir.Const:
		return c.pool(x.Val)
	case *ir.GlobalRef:
		return c.pool(c.gaddr[x.Global])
	case *ir.FuncRef:
		// Function values use the VM's encoding: -index-1, disjoint
		// from memory addresses.
		return c.pool(-int64(c.mod.FuncIndex(x.Func)) - 1)
	}
	panic(fmt.Sprintf("bytecode: unknown value %T", v))
}

func (c *compiler) str(s string) int32 {
	if idx, ok := c.strIdx[s]; ok {
		return idx
	}
	idx := int32(len(c.p.Strings))
	c.p.Strings = append(c.p.Strings, s)
	c.strIdx[s] = idx
	return idx
}

// words appends raw code words.
func (c *compiler) words(ws ...int32) { c.p.Code = append(c.p.Code, ws...) }

func (c *compiler) emit(in ir.Instr) {
	pc := in.PC()
	c.p.IdxOfPC[pc] = int32(len(c.p.Code))
	p := int32(pc)

	switch i := in.(type) {
	case *ir.AllocaInstr:
		c.words(int32(Alloca), p, int32(i.Dst.Index), int32(wordsOf(i.Elem)))
	case *ir.NewInstr:
		c.words(int32(New), p, int32(i.Dst.Index), int32(wordsOf(i.Elem)))
	case *ir.LoadInstr:
		c.words(int32(Load), p, int32(i.Dst.Index), c.operand(i.Addr))
	case *ir.StoreInstr:
		c.words(int32(Store), p, c.operand(i.Val), c.operand(i.Addr))
	case *ir.FieldAddrInstr:
		off := int32(i.StructType().FieldOffset(i.Field))
		c.words(int32(FieldAddr), p, int32(i.Dst.Index), c.operand(i.Base), off)
	case *ir.IndexAddrInstr:
		at := ir.Deref(i.Base.Type()).(*ir.ArrayType)
		c.words(int32(IndexAddr), p, int32(i.Dst.Index), c.operand(i.Base), c.operand(i.Index),
			int32(at.Len), int32(wordsOf(at.Elem)))
	case *ir.BinInstr:
		c.words(int32(binOpcode[i.BOp]), p, int32(i.Dst.Index), c.operand(i.X), c.operand(i.Y))
	case *ir.CastInstr:
		c.words(int32(Cast), p, int32(i.Dst.Index), c.operand(i.Val))
	case *ir.BrInstr:
		c.words(int32(Jump), p, c.blockOff[i.Target], int32(i.Target.FirstPC()))
	case *ir.CondBrInstr:
		c.words(int32(JumpIf), p, c.operand(i.Cond), c.blockOff[i.Then], int32(i.Then.FirstPC()),
			c.blockOff[i.Else], int32(i.Else.FirstPC()))
	case *ir.CallInstr:
		c.emitCallLike(p, Call, CallInd, i.Dst, i.Callee, i.Args)
	case *ir.SpawnInstr:
		c.emitCallLike(p, Spawn, SpawnInd, i.Dst, i.Callee, i.Args)
	case *ir.RetInstr:
		if i.Val == nil {
			c.words(int32(Return), p)
		} else {
			c.words(int32(ReturnVal), p, c.operand(i.Val))
		}
	case *ir.JoinInstr:
		c.words(int32(Join), p, c.operand(i.Tid))
	case *ir.LockInstr:
		c.words(int32(Lock), p, c.operand(i.Addr))
	case *ir.UnlockInstr:
		c.words(int32(Unlock), p, c.operand(i.Addr))
	case *ir.WaitInstr:
		c.words(int32(Wait), p, c.operand(i.Mu), c.operand(i.Cv))
	case *ir.NotifyInstr:
		c.words(int32(Notify), p, c.operand(i.Cv))
	case *ir.SleepInstr:
		c.words(int32(Sleep), p, c.operand(i.Dur))
	case *ir.AssertInstr:
		c.words(int32(Assert), p, c.operand(i.Cond), c.str(i.Msg))
	case *ir.PrintInstr:
		c.words(int32(Print), p, int32(len(i.Args)))
		for _, a := range i.Args {
			c.words(c.operand(a))
		}
	default:
		panic(fmt.Sprintf("bytecode: unsupported instruction %s", in))
	}
}

// emitCallLike compiles call and spawn, which share the
// direct/indirect split and the inline argument list.
func (c *compiler) emitCallLike(p int32, direct, indirect Opcode, dst *ir.Reg, callee ir.Value, args []ir.Value) {
	d := int32(-1)
	if dst != nil {
		d = int32(dst.Index)
	}
	// Arguments enter the pool before an indirect callee does.
	argWords := make([]int32, len(args))
	for j, a := range args {
		argWords[j] = c.operand(a)
	}
	if fr, ok := callee.(*ir.FuncRef); ok {
		c.words(int32(direct), p, d, int32(c.mod.FuncIndex(fr.Func)), int32(len(args)))
	} else {
		c.words(int32(indirect), p, d, c.operand(callee), int32(len(args)))
	}
	c.words(argWords...)
}

// binOpcode maps IR binary operators to their specialized opcodes.
var binOpcode = map[ir.BinOp]Opcode{
	ir.Add: Add, ir.Sub: Sub, ir.Mul: Mul, ir.Div: Div, ir.Rem: Rem,
	ir.And: And, ir.Or: Or, ir.Xor: Xor, ir.Shl: Shl, ir.Shr: Shr,
	ir.Eq: Eq, ir.Ne: Ne, ir.Lt: Lt, ir.Le: Le, ir.Gt: Gt, ir.Ge: Ge,
}
