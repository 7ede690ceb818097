package vm

import (
	"fmt"
	"strings"

	"snorlax/internal/ir"
	"snorlax/internal/vm/bytecode"
)

// This file is the bytecode execution engine: a tight dispatch loop
// over the flat 32-bit word code built by internal/vm/bytecode. It is
// a statement-for-statement port of the tree-walking interpreter in
// exec.go — same evaluation order, same hook points, same failure
// messages, same virtual-time accounting — so executions are
// bit-identical between the two engines. The differential suite and
// the fuzz target enforce that invariant over the whole corpus; any
// behavioral change here must land in exec.go too, and vice versa.

// runBytecode is the bytecode engine's run loop. It is semantically
// identical to the tree-walker's Run loop but avoids the per-step
// runnable-list allocation: when the current thread is runnable and
// inside its quantum (the overwhelmingly common case), the scheduler
// would keep it running without consulting the RNG, so the list is
// only materialized — into a reused buffer — when a real scheduling
// decision is due.
func (v *VM) runBytecode() *Result {
	for v.failure == nil {
		if v.steps >= v.cfg.MaxSteps {
			pc := ir.NoPC
			if t := v.threads[v.cur]; t.state == tRunnable {
				pc = t.curPC()
			}
			v.fail(FailStep, pc, v.cur, "exceeded %d steps", v.cfg.MaxSteps)
			break
		}
		v.wakeSleepers()
		cur := v.threads[v.cur]
		if cur.state == tRunnable && v.clock < cur.quantumEnd {
			v.runQuantum(cur)
			continue
		}
		runnable := v.runnableInto()
		if len(runnable) == 0 {
			if wake, ok := v.earliestWake(); ok {
				v.clock = wake
				continue
			}
			if v.liveCount() == 0 {
				break // clean exit
			}
			v.reportHang()
			break
		}
		v.schedule(runnable)
		v.runQuantum(v.threads[v.cur])
	}
	return &Result{
		Failure:    v.failure,
		Output:     v.output,
		Time:       v.clock,
		Steps:      v.steps,
		Watch:      v.watch,
		Branches:   v.branches,
		MaxThreads: v.maxLive,
	}
}

// runnableInto is runnableIDs into a reused scratch buffer.
func (v *VM) runnableInto() []int {
	ids := v.runnableBuf[:0]
	for _, t := range v.threads {
		if t.state == tRunnable {
			ids = append(ids, t.id)
		}
	}
	v.runnableBuf = ids
	return ids
}

// bval resolves a value operand: a non-negative word is a register of
// fr, a negative word names a constant-pool slot.
func (v *VM) bval(fr *frame, w int32) int64 {
	if w >= 0 {
		return fr.regs[w]
	}
	return v.prog.Pool[^w]
}

// emitBranch reports a control-transfer event. Branch-kind events
// only count v.branches when no sink is attached, so the hot path
// skips constructing the TraceEvent; with a sink attached it defers
// to emit, which performs the identical accounting.
func (v *VM) emitBranch(kind EventKind, tid int, from, to ir.PC, taken bool) {
	if v.cfg.Sink == nil {
		v.branches++
		return
	}
	v.emit(TraceEvent{Kind: kind, Tid: tid, Time: v.clock,
		From: from, To: to, Taken: taken, Live: v.liveCount()})
}

// runQuantum executes compiled instructions of thread t until it
// blocks, exits, faults, exhausts its timeslice or the step budget.
// The per-instruction preamble replicates the run loop's checks in
// the tree-walker's order (sleeper wakeup before the step; budget and
// quantum before the next), so the sequence of observable actions is
// identical to stepping one instruction at a time — the loop only
// exists to keep the frame's code array and the dispatch hot without
// a function call per instruction. The switch mirrors (*VM).step case
// by case; cases `return` wherever the tree-walker stops stepping.
func (v *VM) runQuantum(t *thread) {
	fr := t.top()
	code := fr.code
	for {
		cip := fr.cip
		pc := ir.PC(code[cip+1])

		if v.cfg.Gate != nil && !v.cfg.Gate.Allow(t.id, v.mod.InstrAt(pc), v.clock) {
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

		switch bytecode.Opcode(code[cip]) {
		case bytecode.Alloca, bytecode.New:
			fr.regs[code[cip+2]] = v.mem.alloc(int64(code[cip+3]))
			fr.cip = cip + 4
		case bytecode.Load:
			addr := v.bval(fr, code[cip+3])
			if !v.checkAddr(addr, pc, t.id, "load") {
				return
			}
			if v.cfg.Access != nil {
				v.cfg.Access.OnAccess(t.id, v.mod.InstrAt(pc), addr, false, v.clock)
			}
			fr.regs[code[cip+2]] = v.mem.load(addr)
			fr.cip = cip + 4
		case bytecode.Store:
			addr := v.bval(fr, code[cip+3])
			if !v.checkAddr(addr, pc, t.id, "store") {
				return
			}
			if v.cfg.Access != nil {
				v.cfg.Access.OnAccess(t.id, v.mod.InstrAt(pc), addr, true, v.clock)
			}
			v.mem.store(addr, v.bval(fr, code[cip+2]))
			fr.cip = cip + 4
		case bytecode.FieldAddr:
			base := v.bval(fr, code[cip+3])
			if !v.checkAddr(base, pc, t.id, "fieldaddr") {
				return
			}
			fr.regs[code[cip+2]] = base + int64(code[cip+4])
			fr.cip = cip + 5
		case bytecode.IndexAddr:
			base := v.bval(fr, code[cip+3])
			if !v.checkAddr(base, pc, t.id, "indexaddr") {
				return
			}
			idx := v.bval(fr, code[cip+4])
			if idx < 0 || idx >= int64(code[cip+5]) {
				v.fail(FailCrash, pc, t.id, "index %d out of range [0,%d)", idx, int64(code[cip+5]))
				return
			}
			fr.regs[code[cip+2]] = base + idx*int64(code[cip+6])
			fr.cip = cip + 7

		case bytecode.Add:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) + v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Sub:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) - v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Mul:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) * v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Div:
			y := v.bval(fr, code[cip+4])
			if y == 0 {
				v.fail(FailCrash, pc, t.id, "division by zero")
				return
			}
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) / y
			fr.cip = cip + 5
		case bytecode.Rem:
			y := v.bval(fr, code[cip+4])
			if y == 0 {
				v.fail(FailCrash, pc, t.id, "remainder by zero")
				return
			}
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) % y
			fr.cip = cip + 5
		case bytecode.And:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) & v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Or:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) | v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Xor:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) ^ v.bval(fr, code[cip+4])
			fr.cip = cip + 5
		case bytecode.Shl:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) << (uint64(v.bval(fr, code[cip+4])) & 63)
			fr.cip = cip + 5
		case bytecode.Shr:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3]) >> (uint64(v.bval(fr, code[cip+4])) & 63)
			fr.cip = cip + 5
		case bytecode.Eq:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) == v.bval(fr, code[cip+4]))
			fr.cip = cip + 5
		case bytecode.Ne:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) != v.bval(fr, code[cip+4]))
			fr.cip = cip + 5
		case bytecode.Lt:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) < v.bval(fr, code[cip+4]))
			fr.cip = cip + 5
		case bytecode.Le:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) <= v.bval(fr, code[cip+4]))
			fr.cip = cip + 5
		case bytecode.Gt:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) > v.bval(fr, code[cip+4]))
			fr.cip = cip + 5
		case bytecode.Ge:
			fr.regs[code[cip+2]] = b2i(v.bval(fr, code[cip+3]) >= v.bval(fr, code[cip+4]))
			fr.cip = cip + 5

		case bytecode.Cast:
			fr.regs[code[cip+2]] = v.bval(fr, code[cip+3])
			fr.cip = cip + 4
		case bytecode.Jump:
			v.emitBranch(EvUncondBranch, t.id, pc, ir.PC(code[cip+3]), false)
			fr.cip = code[cip+2]
		case bytecode.JumpIf:
			taken := v.bval(fr, code[cip+2]) != 0
			tgt, toPC := code[cip+5], code[cip+6]
			if taken {
				tgt, toPC = code[cip+3], code[cip+4]
			}
			v.emitBranch(EvCondBranch, t.id, pc, ir.PC(toPC), taken)
			fr.cip = tgt
		case bytecode.Call:
			fnIdx := code[cip+3]
			info := &v.prog.Funcs[fnIdx]
			v.emitBranch(EvCall, t.id, pc, info.EntryPC, false)
			v.pushCallBC(t, fr, cip, fnIdx, info)
		case bytecode.CallInd:
			fnIdx, ok := v.decodeFuncIdx(v.bval(fr, code[cip+3]))
			if !ok {
				v.fail(FailCrash, pc, t.id, "call through invalid function value")
				return
			}
			info := &v.prog.Funcs[fnIdx]
			v.emitBranch(EvIndirectCall, t.id, pc, info.EntryPC, false)
			v.pushCallBC(t, fr, cip, fnIdx, info)
		case bytecode.Return, bytecode.ReturnVal:
			var ret int64
			if bytecode.Opcode(code[cip]) == bytecode.ReturnVal {
				ret = v.bval(fr, code[cip+2])
			}
			retReg := fr.retReg
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
			if retReg >= 0 {
				caller.regs[retReg] = ret
			}
			// The return site is the instruction the caller resumes at.
			to := ir.NoPC
			if int(caller.cip) < len(code) {
				to = ir.PC(code[caller.cip+1])
			}
			v.emitBranch(EvRet, t.id, pc, to, false)
		case bytecode.Spawn:
			if v.liveCount() >= v.cfg.MaxThreads {
				v.fail(FailCrash, pc, t.id, "thread limit %d exceeded", v.cfg.MaxThreads)
				return
			}
			v.doSpawnBC(t, fr, cip, code[cip+3])
		case bytecode.SpawnInd:
			fnIdx, ok := v.decodeFuncIdx(v.bval(fr, code[cip+3]))
			if !ok {
				v.fail(FailCrash, pc, t.id, "call through invalid function value")
				return
			}
			if v.liveCount() >= v.cfg.MaxThreads {
				v.fail(FailCrash, pc, t.id, "thread limit %d exceeded", v.cfg.MaxThreads)
				return
			}
			v.doSpawnBC(t, fr, cip, fnIdx)
		case bytecode.Join:
			tid := v.bval(fr, code[cip+2])
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
			fr.cip = cip + 3
		case bytecode.Lock:
			addr := v.bval(fr, code[cip+2])
			if !v.checkAddr(addr, pc, t.id, "lock") {
				return
			}
			owner, held := v.lockOwner[addr]
			if !held {
				v.lockOwner[addr] = t.id
				v.mem.store(addr, int64(t.id)+1)
				if v.cfg.Access != nil {
					v.cfg.Access.OnLock(t.id, v.mod.InstrAt(pc), addr, true, v.clock)
				}
				fr.cip = cip + 3
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
		case bytecode.Unlock:
			addr := v.bval(fr, code[cip+2])
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
				v.cfg.Access.OnLock(t.id, v.mod.InstrAt(pc), addr, false, v.clock)
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
			fr.cip = cip + 3
		case bytecode.Wait:
			muAddr := v.bval(fr, code[cip+2])
			cvAddr := v.bval(fr, code[cip+3])
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
					fr.cip = cip + 4
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
		case bytecode.Notify:
			cvAddr := v.bval(fr, code[cip+2])
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
			fr.cip = cip + 3
		case bytecode.Sleep:
			dur := v.bval(fr, code[cip+2])
			if dur < 0 {
				dur = 0
			}
			v.sleep(t, v.clock+dur)
			fr.cip = cip + 3
			v.pauseThread(t)
		case bytecode.Assert:
			if v.bval(fr, code[cip+2]) == 0 {
				v.fail(FailCrash, pc, t.id, "assertion failed: %s", v.prog.Strings[code[cip+3]])
				return
			}
			fr.cip = cip + 4
		case bytecode.Print:
			argc := code[cip+2]
			parts := make([]string, argc)
			for j := int32(0); j < argc; j++ {
				parts[j] = fmt.Sprintf("%d", v.bval(fr, code[cip+3+j]))
			}
			v.output = append(v.output, strings.Join(parts, " "))
			fr.cip = cip + 3 + argc
		default:
			v.fail(FailCrash, pc, t.id, "unimplemented instruction %s", v.mod.InstrAt(pc))
		}

		// Post-step, in the run loop's exact order: stop on failure,
		// block or exit; then the step-budget check, then sleeper
		// wakeup (whose trace events may charge sink cost *before*
		// the quantum comparison sees the clock), then quantum
		// expiry. A frame change (call/ret) just refreshes the
		// cached code pointer.
		if v.failure != nil || t.state != tRunnable {
			return
		}
		if top := t.top(); top != fr {
			fr = top
			code = fr.code
		}
		if v.steps >= v.cfg.MaxSteps {
			return
		}
		if v.nSleeping > 0 && v.clock >= v.nextWake {
			v.wakeSleepers()
		}
		if v.clock >= t.quantumEnd {
			return
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// decodeFuncIdx decodes a function value (-index-1) into a function
// index, reporting validity.
func (v *VM) decodeFuncIdx(val int64) (int32, bool) {
	idx := -val - 1
	if idx < 0 || idx >= int64(len(v.prog.Funcs)) {
		return 0, false
	}
	return int32(idx), true
}

// pushCallBC evaluates the call's inline arguments directly into the
// callee frame's parameter registers (argument evaluation is pure, so
// skipping the intermediate slice the tree-walker builds is
// unobservable) and pushes the frame.
func (v *VM) pushCallBC(t *thread, fr *frame, cip, fnIdx int32, info *bytecode.FuncInfo) {
	code := fr.code
	argc := code[cip+4]
	nf := &frame{fn: v.mod.Funcs[fnIdx], code: code, cip: info.Start,
		regs: make([]int64, info.NumRegs), retReg: code[cip+2]}
	for j := int32(0); j < argc; j++ {
		nf.regs[info.Params[j]] = v.bval(fr, code[cip+5+j])
	}
	fr.cip = cip + 5 + argc // resume after the call upon return
	t.stack = append(t.stack, nf)
}

// doSpawnBC evaluates spawn arguments and starts the thread; the
// caller has already performed callee resolution and the live-thread
// limit check in the tree-walker's order.
func (v *VM) doSpawnBC(t *thread, fr *frame, cip, fnIdx int32) {
	code := fr.code
	argc := code[cip+4]
	args := make([]int64, argc)
	for j := int32(0); j < argc; j++ {
		args[j] = v.bval(fr, code[cip+5+j])
	}
	tid := v.spawnThread(v.mod.Funcs[fnIdx], args)
	fr.regs[code[cip+2]] = int64(tid)
	fr.cip = cip + 5 + argc
}
