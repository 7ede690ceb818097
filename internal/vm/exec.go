package vm

import (
	"fmt"
	"strings"

	"snorlax/internal/ir"
)

// This file is the tree-walking interpreter. Production VMs run the
// bytecode engine (bcexec.go); the tree-walker runs only when a test
// builds its VM with NewTreeWalk (export_test.go), as the bytecode
// engine's differential oracle and the perf lane's normalisation
// reference.

// step executes exactly one instruction of thread t.
func (v *VM) step(t *thread) {
	fr := t.top()
	in := fr.block.Instrs[fr.idx]
	pc := in.PC()

	if v.cfg.Gate != nil && !v.cfg.Gate.Allow(t.id, in, v.clock) {
		// Replay fence: back off and retry; the scheduler runs other
		// threads meanwhile. The retry consumes step budget so an
		// unenforceable order terminates with FailStep instead of
		// spinning forever.
		v.steps++
		v.sleep(t, v.clock+v.cfg.GateBackoffNS)
		return
	}
	if v.pcFlags != nil {
		if f := v.pcFlags[pc]; f != 0 {
			v.before(t.id, pc, f)
		}
	}
	v.steps++
	v.clock += v.cfg.InstrCost

	switch i := in.(type) {
	case *ir.AllocaInstr:
		fr.regs[i.Dst.Index] = v.mem.alloc(wordsOf(i.Elem))
		fr.idx++
	case *ir.NewInstr:
		fr.regs[i.Dst.Index] = v.mem.alloc(wordsOf(i.Elem))
		fr.idx++
	case *ir.LoadInstr:
		addr := v.eval(fr, i.Addr)
		if !v.checkAddr(addr, pc, t.id, "load") {
			return
		}
		if v.cfg.Access != nil {
			v.cfg.Access.OnAccess(t.id, in, addr, false, v.clock)
		}
		fr.regs[i.Dst.Index] = v.mem.load(addr)
		fr.idx++
	case *ir.StoreInstr:
		addr := v.eval(fr, i.Addr)
		if !v.checkAddr(addr, pc, t.id, "store") {
			return
		}
		if v.cfg.Access != nil {
			v.cfg.Access.OnAccess(t.id, in, addr, true, v.clock)
		}
		v.mem.store(addr, v.eval(fr, i.Val))
		fr.idx++
	case *ir.FieldAddrInstr:
		base := v.eval(fr, i.Base)
		if !v.checkAddr(base, pc, t.id, "fieldaddr") {
			return
		}
		st := i.StructType()
		fr.regs[i.Dst.Index] = base + st.FieldOffset(i.Field)
		fr.idx++
	case *ir.IndexAddrInstr:
		base := v.eval(fr, i.Base)
		if !v.checkAddr(base, pc, t.id, "indexaddr") {
			return
		}
		at := ir.Deref(i.Base.Type()).(*ir.ArrayType)
		idx := v.eval(fr, i.Index)
		if idx < 0 || idx >= at.Len {
			v.fail(FailCrash, pc, t.id, "index %d out of range [0,%d)", idx, at.Len)
			return
		}
		fr.regs[i.Dst.Index] = base + idx*wordsOf(at.Elem)
		fr.idx++
	case *ir.BinInstr:
		x, y := v.eval(fr, i.X), v.eval(fr, i.Y)
		res, err := evalBin(i.BOp, x, y)
		if err != "" {
			v.fail(FailCrash, pc, t.id, "%s", err)
			return
		}
		fr.regs[i.Dst.Index] = res
		fr.idx++
	case *ir.CastInstr:
		fr.regs[i.Dst.Index] = v.eval(fr, i.Val)
		fr.idx++
	case *ir.BrInstr:
		v.emit(TraceEvent{Kind: EvUncondBranch, Tid: t.id, Time: v.clock,
			From: pc, To: i.Target.FirstPC(), Live: v.liveCount()})
		fr.block = i.Target
		fr.idx = 0
	case *ir.CondBrInstr:
		taken := v.eval(fr, i.Cond) != 0
		target := i.Else
		if taken {
			target = i.Then
		}
		v.emit(TraceEvent{Kind: EvCondBranch, Tid: t.id, Time: v.clock,
			From: pc, To: target.FirstPC(), Taken: taken, Live: v.liveCount()})
		fr.block = target
		fr.idx = 0
	case *ir.CallInstr:
		fn, indirect, ok := v.resolveCallee(fr, i.Callee, pc, t.id)
		if !ok {
			return
		}
		kind := EvCall
		if indirect {
			kind = EvIndirectCall
		}
		v.emit(TraceEvent{Kind: kind, Tid: t.id, Time: v.clock,
			From: pc, To: fn.Entry().FirstPC(), Live: v.liveCount()})
		args := make([]int64, len(i.Args))
		for j, a := range i.Args {
			args[j] = v.eval(fr, a)
		}
		nf := &frame{fn: fn, block: fn.Entry(), regs: make([]int64, len(fn.Regs)), retDst: i.Dst}
		for j, a := range args {
			nf.regs[fn.Params[j].Index] = a
		}
		fr.idx++ // resume after the call upon return
		t.stack = append(t.stack, nf)
	case *ir.RetInstr:
		var ret int64
		if i.Val != nil {
			ret = v.eval(fr, i.Val)
		}
		retDst := fr.retDst
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			t.state = tExited
			v.nLive--
			v.emit(TraceEvent{Kind: EvThreadEnd, Tid: t.id, Time: v.clock,
				From: pc, To: ir.NoPC, Live: v.liveCount()})
			v.wakeJoiners(t.id)
			return
		}
		caller := t.top()
		if retDst != nil {
			caller.regs[retDst.Index] = ret
		}
		// The return site is the instruction the caller resumes at.
		to := ir.NoPC
		if caller.idx < len(caller.block.Instrs) {
			to = caller.block.Instrs[caller.idx].PC()
		}
		v.emit(TraceEvent{Kind: EvRet, Tid: t.id, Time: v.clock,
			From: pc, To: to, Live: v.liveCount()})
	case *ir.SpawnInstr:
		fn, _, ok := v.resolveCallee(fr, i.Callee, pc, t.id)
		if !ok {
			return
		}
		if v.liveCount() >= v.cfg.MaxThreads {
			v.fail(FailCrash, pc, t.id, "thread limit %d exceeded", v.cfg.MaxThreads)
			return
		}
		args := make([]int64, len(i.Args))
		for j, a := range i.Args {
			args[j] = v.eval(fr, a)
		}
		tid := v.spawnThread(fn, args)
		fr.regs[i.Dst.Index] = int64(tid)
		fr.idx++
	case *ir.JoinInstr:
		tid := v.eval(fr, i.Tid)
		if tid < 0 || tid >= int64(len(v.threads)) {
			v.fail(FailCrash, pc, t.id, "join of invalid thread %d", tid)
			return
		}
		if tid == int64(t.id) {
			v.fail(FailDeadlock, pc, t.id, "thread joins itself")
			v.failure.DeadlockPCs = []ir.PC{pc}
			v.failure.DeadlockTids = []int{t.id}
			return
		}
		if v.threads[tid].state != tExited {
			t.state = tBlockedJoin
			t.waitTid = int(tid)
			v.pauseThread(t)
			return // re-execute join when woken
		}
		fr.idx++
	case *ir.LockInstr:
		addr := v.eval(fr, i.Addr)
		if !v.checkAddr(addr, pc, t.id, "lock") {
			return
		}
		owner, held := v.lockOwner[addr]
		if !held {
			v.lockOwner[addr] = t.id
			v.mem.store(addr, int64(t.id)+1)
			if v.cfg.Access != nil {
				v.cfg.Access.OnLock(t.id, in, addr, true, v.clock)
			}
			fr.idx++
			return
		}
		if owner == t.id {
			v.fail(FailDeadlock, pc, t.id, "thread %d re-locks a mutex it holds", t.id)
			v.failure.DeadlockPCs = []ir.PC{pc}
			v.failure.DeadlockTids = []int{t.id}
			return
		}
		t.state = tBlockedLock
		t.waitLock = addr
		v.lockWaiters[addr] = append(v.lockWaiters[addr], t.id)
		v.pauseThread(t)
		v.checkDeadlockFrom(t.id)
	case *ir.UnlockInstr:
		addr := v.eval(fr, i.Addr)
		if !v.checkAddr(addr, pc, t.id, "unlock") {
			return
		}
		owner, held := v.lockOwner[addr]
		if !held || owner != t.id {
			v.fail(FailCrash, pc, t.id, "unlock of mutex not held by thread %d", t.id)
			return
		}
		delete(v.lockOwner, addr)
		v.mem.store(addr, 0)
		if v.cfg.Access != nil {
			v.cfg.Access.OnLock(t.id, in, addr, false, v.clock)
		}
		// Wake all waiters; they retry the lock instruction and all
		// but one re-block, modeling contention.
		for _, wid := range v.lockWaiters[addr] {
			w := v.threads[wid]
			if w.state == tBlockedLock && w.waitLock == addr {
				w.state = tRunnable
				v.emit(TraceEvent{Kind: EvContextSwitch, Tid: w.id, Time: v.clock,
					From: ir.NoPC, To: w.curPC(), Live: v.liveCount()})
			}
		}
		delete(v.lockWaiters, addr)
		fr.idx++
	case *ir.WaitInstr:
		muAddr := v.eval(fr, i.Mu)
		cvAddr := v.eval(fr, i.Cv)
		if !v.checkAddr(muAddr, pc, t.id, "wait") || !v.checkAddr(cvAddr, pc, t.id, "wait") {
			return
		}
		switch t.condPhase {
		case 0:
			// Release the mutex and start waiting.
			owner, held := v.lockOwner[muAddr]
			if !held || owner != t.id {
				v.fail(FailCrash, pc, t.id, "wait on mutex not held by thread %d", t.id)
				return
			}
			delete(v.lockOwner, muAddr)
			v.mem.store(muAddr, 0)
			for _, wid := range v.lockWaiters[muAddr] {
				w := v.threads[wid]
				if w.state == tBlockedLock && w.waitLock == muAddr {
					w.state = tRunnable
				}
			}
			delete(v.lockWaiters, muAddr)
			t.condPhase = 1
			t.waitCond = cvAddr
			t.state = tBlockedCond
			v.condWaiters[cvAddr] = append(v.condWaiters[cvAddr], t.id)
			v.pauseThread(t)
		case 2:
			// Notified: reacquire the mutex, then continue.
			owner, held := v.lockOwner[muAddr]
			if !held {
				v.lockOwner[muAddr] = t.id
				v.mem.store(muAddr, int64(t.id)+1)
				t.condPhase = 0
				fr.idx++
				return
			}
			if owner == t.id {
				v.fail(FailDeadlock, pc, t.id, "thread %d re-locks a mutex it holds", t.id)
				v.failure.DeadlockPCs = []ir.PC{pc}
				v.failure.DeadlockTids = []int{t.id}
				return
			}
			t.state = tBlockedLock
			t.waitLock = muAddr
			v.lockWaiters[muAddr] = append(v.lockWaiters[muAddr], t.id)
			v.pauseThread(t)
			v.checkDeadlockFrom(t.id)
		}
	case *ir.NotifyInstr:
		cvAddr := v.eval(fr, i.Cv)
		if !v.checkAddr(cvAddr, pc, t.id, "notify") {
			return
		}
		// Broadcast: wake every waiter; a notify with no waiters is
		// lost, exactly like pthread_cond_broadcast.
		for _, wid := range v.condWaiters[cvAddr] {
			w := v.threads[wid]
			if w.state == tBlockedCond && w.waitCond == cvAddr {
				w.condPhase = 2
				w.state = tRunnable
				v.emit(TraceEvent{Kind: EvContextSwitch, Tid: w.id, Time: v.clock,
					From: ir.NoPC, To: w.curPC(), Live: v.liveCount()})
			}
		}
		delete(v.condWaiters, cvAddr)
		fr.idx++
	case *ir.SleepInstr:
		dur := v.eval(fr, i.Dur)
		if dur < 0 {
			dur = 0
		}
		v.sleep(t, v.clock+dur)
		fr.idx++
		v.pauseThread(t)
	case *ir.AssertInstr:
		if v.eval(fr, i.Cond) == 0 {
			v.fail(FailCrash, pc, t.id, "assertion failed: %s", i.Msg)
			return
		}
		fr.idx++
	case *ir.PrintInstr:
		parts := make([]string, len(i.Args))
		for j, a := range i.Args {
			parts[j] = fmt.Sprintf("%d", v.eval(fr, a))
		}
		v.output = append(v.output, strings.Join(parts, " "))
		fr.idx++
	default:
		v.fail(FailCrash, pc, t.id, "unimplemented instruction %s", in)
	}
}

// eval computes the runtime value of an operand in frame fr.
func (v *VM) eval(fr *frame, val ir.Value) int64 {
	switch x := val.(type) {
	case *ir.Const:
		return x.Val
	case *ir.Reg:
		return fr.regs[x.Index]
	case *ir.GlobalRef:
		if v.globalAddr == nil {
			v.globalAddr = make(map[*ir.Global]int64, len(v.mod.Globals))
			for i, g := range v.mod.Globals {
				v.globalAddr[g] = v.globalAddrs[i]
			}
		}
		return v.globalAddr[x.Global]
	case *ir.FuncRef:
		return v.encodeFunc(x.Func)
	}
	panic(fmt.Sprintf("vm: unknown value %T", val))
}

// encodeFunc represents a function value as a negative integer so it
// cannot collide with memory addresses.
func (v *VM) encodeFunc(fn *ir.Func) int64 {
	for i, f := range v.mod.Funcs {
		if f == fn {
			return -int64(i) - 1
		}
	}
	panic("vm: function not in module")
}

func (v *VM) decodeFunc(val int64) *ir.Func {
	idx := -val - 1
	if idx < 0 || idx >= int64(len(v.mod.Funcs)) {
		return nil
	}
	return v.mod.Funcs[idx]
}

func (v *VM) resolveCallee(fr *frame, callee ir.Value, pc ir.PC, tid int) (fn *ir.Func, indirect bool, ok bool) {
	if fref, direct := callee.(*ir.FuncRef); direct {
		return fref.Func, false, true
	}
	fn = v.decodeFunc(v.eval(fr, callee))
	if fn == nil {
		v.fail(FailCrash, pc, tid, "call through invalid function value")
		return nil, true, false
	}
	return fn, true, true
}

// checkAddr validates a pointer dereference, reporting a crash for
// null or out-of-bounds addresses.
func (v *VM) checkAddr(addr int64, pc ir.PC, tid int, op string) bool {
	if addr == 0 {
		v.fail(FailCrash, pc, tid, "%s of null pointer", op)
		return false
	}
	if !v.mem.valid(addr) {
		v.fail(FailCrash, pc, tid, "%s of invalid address %d", op, addr)
		return false
	}
	return true
}

// evalBin computes a binary operation; err is non-empty on faults.
func evalBin(op ir.BinOp, x, y int64) (res int64, err string) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return x + y, ""
	case ir.Sub:
		return x - y, ""
	case ir.Mul:
		return x * y, ""
	case ir.Div:
		if y == 0 {
			return 0, "division by zero"
		}
		return x / y, ""
	case ir.Rem:
		if y == 0 {
			return 0, "remainder by zero"
		}
		return x % y, ""
	case ir.And:
		return x & y, ""
	case ir.Or:
		return x | y, ""
	case ir.Xor:
		return x ^ y, ""
	case ir.Shl:
		return x << (uint64(y) & 63), ""
	case ir.Shr:
		return x >> (uint64(y) & 63), ""
	case ir.Eq:
		return b2i(x == y), ""
	case ir.Ne:
		return b2i(x != y), ""
	case ir.Lt:
		return b2i(x < y), ""
	case ir.Le:
		return b2i(x <= y), ""
	case ir.Gt:
		return b2i(x > y), ""
	case ir.Ge:
		return b2i(x >= y), ""
	}
	return 0, fmt.Sprintf("unknown binary op %d", op)
}

// wakeJoiners resumes threads blocked joining tid.
func (v *VM) wakeJoiners(tid int) {
	for _, t := range v.threads {
		if t.state == tBlockedJoin && t.waitTid == tid {
			t.state = tRunnable
			v.emit(TraceEvent{Kind: EvContextSwitch, Tid: t.id, Time: v.clock,
				From: ir.NoPC, To: t.curPC(), Live: v.liveCount()})
		}
	}
}
