package vm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"snorlax/internal/ir"
	"snorlax/internal/vm/bytecode"
)

// Config controls one execution.
type Config struct {
	// Seed drives every scheduling decision; the same seed, module
	// and config produce a bit-identical execution.
	Seed int64
	// MaxSteps bounds the number of executed instructions
	// (default 20e6). Exceeding it reports a FailStep failure.
	MaxSteps int64
	// InstrCost is the virtual time per instruction in nanoseconds
	// (default 10).
	InstrCost int64
	// QuantumMin/QuantumMax bound the scheduler timeslice in
	// nanoseconds (defaults 20_000 and 100_000). A thread runs until
	// it blocks, sleeps, or its quantum expires.
	QuantumMin, QuantumMax int64
	// CtxSwitchCost is the virtual time per context switch in
	// nanoseconds (default 1000).
	CtxSwitchCost int64
	// MaxThreads bounds concurrently live threads (default 4096).
	MaxThreads int
	// WatchPCs registers instructions whose executions are recorded
	// as WatchEvents with pre-execution timestamps (the paper's §3.2
	// clock_gettime instrumentation).
	WatchPCs map[ir.PC]bool
	// Sink, when non-nil, receives control-flow trace events.
	Sink TraceSink
	// Hook, when non-nil, observes instructions before they execute:
	// every instruction, or only those its HookPCs lists (PCHook).
	Hook InstrHook
	// Gate, when non-nil, may defer instructions (replay enforcement).
	Gate GateHook
	// Access, when non-nil, observes memory and lock operations with
	// resolved addresses.
	Access AccessHook
	// GateBackoffNS is how long a vetoed thread sleeps before
	// retrying (default 500).
	GateBackoffNS int64
}

func (c Config) withDefaults() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 20_000_000
	}
	if c.InstrCost == 0 {
		c.InstrCost = 10
	}
	if c.QuantumMin == 0 {
		c.QuantumMin = 20_000
	}
	if c.QuantumMax == 0 {
		c.QuantumMax = 100_000
	}
	if c.QuantumMax < c.QuantumMin {
		c.QuantumMax = c.QuantumMin
	}
	if c.CtxSwitchCost == 0 {
		c.CtxSwitchCost = 1000
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 4096
	}
	if c.GateBackoffNS == 0 {
		c.GateBackoffNS = 500
	}
	return c
}

type tstate int

const (
	tRunnable tstate = iota
	tSleeping
	tBlockedLock
	tBlockedJoin
	tBlockedCond
	tExited
)

// frame is one function activation. The tree-walking interpreter
// positions it with (block, idx); the bytecode engine positions it
// with (code, cip) where cip indexes the program's flat code array.
// Exactly one of the two position encodings is active per execution.
type frame struct {
	fn    *ir.Func
	block *ir.Block
	idx   int
	regs  []int64
	// retDst is the caller-frame register receiving the return
	// value, or nil (tree-walk encoding).
	retDst *ir.Reg
	// code/cip position the frame for the bytecode engine; code is
	// nil under the tree-walker.
	code []int32
	cip  int32
	// retReg is the caller-frame register index receiving the return
	// value, or -1 (bytecode encoding).
	retReg int32
}

type thread struct {
	id         int
	stack      []*frame
	state      tstate
	wakeAt     int64
	waitLock   int64
	waitTid    int
	quantumEnd int64
	// condPhase tracks a wait instruction's progress: 0 = not
	// waiting, 1 = released the mutex and waiting for a notify,
	// 2 = notified, reacquiring the mutex.
	condPhase int
	waitCond  int64
}

func (t *thread) top() *frame { return t.stack[len(t.stack)-1] }

// curPC returns the PC of the instruction the thread will execute
// next, under either engine. Every compiled instruction carries its
// PC in the word after the opcode, so the bytecode path is one load.
func (t *thread) curPC() ir.PC {
	f := t.top()
	if f.code != nil {
		return ir.PC(f.code[f.cip+1])
	}
	return f.block.Instrs[f.idx].PC()
}

// VM executes one module once. Create a fresh VM (or call Run) per
// execution.
type VM struct {
	mod     *ir.Module
	cfg     Config
	mem     *memory
	clock   int64
	rng     *rand.Rand
	threads []*thread
	// globalAddrs holds the address of each of mod.Globals, in order.
	globalAddrs []int64
	// globalAddr maps each global to its address for the
	// tree-walker's operand evaluation; built on its first use.
	globalAddr map[*ir.Global]int64
	// lockWaiters maps mutex address to blocked thread ids.
	lockWaiters map[int64][]int
	// condWaiters maps condition-variable address to waiting threads.
	condWaiters map[int64][]int
	// lockOwner maps mutex address to owning thread id.
	lockOwner map[int64]int
	cur       int
	steps     int64
	branches  int64
	maxLive   int
	output    []string
	watch     []WatchEvent
	failure   *Failure

	// prog is the compiled program the bytecode engine runs. Only
	// tests clear it, to run the tree-walking interpreter as the
	// bytecode engine's differential oracle (export_test.go).
	prog *bytecode.Program
	// nLive and nSleeping maintain the live and sleeping thread
	// counts incrementally so the hot loop never scans all threads.
	nLive     int
	nSleeping int
	// nextWake is the earliest wakeAt among sleeping threads, valid
	// while nSleeping > 0: no sleeper is due before it, so the
	// per-step wakeup check is one comparison.
	nextWake int64
	// pcFlags marks, per PC, what happens before the instruction
	// there executes (pcWatch, pcHook); nil when nothing does. It is
	// *flagBuf, taken from flagPool for the run.
	pcFlags []uint8
	flagBuf *[]uint8
	// runnableBuf is scratch storage for the bytecode run loop's
	// runnable-thread list.
	runnableBuf []int
}

// New prepares a VM for one execution of mod on the bytecode engine.
// The module must pass ir.Verify and have a main function.
func New(mod *ir.Module, cfg Config) *VM {
	if !mod.Finalized() {
		mod.Finalize()
	}
	cfg = cfg.withDefaults()
	v := &VM{
		mod:         mod,
		cfg:         cfg,
		mem:         newMemory(),
		lockWaiters: make(map[int64][]int),
		condWaiters: make(map[int64][]int),
		lockOwner:   make(map[int64]int),
		prog:        compiledProgram(mod),
	}
	v.allocGlobals()
	main := mod.FuncByName("main")
	if main == nil {
		panic("vm: module has no main")
	}
	v.spawnThread(main, nil)
	return v
}

// The per-PC flags of VM.pcFlags.
const (
	// pcWatch records a WatchEvent (Config.WatchPCs).
	pcWatch uint8 = 1 << iota
	// pcHook calls Config.Hook.
	pcHook
)

// flagPool recycles per-PC flag tables across runs.
var flagPool sync.Pool

// takePCFlags returns a pooled per-PC flag table for the module's n
// instructions and cfg's watched PCs and hook, or nil when no
// instruction needs either. A hook without HookPCs is flagged at
// every PC. PCs outside [0, n) are ignored.
func takePCFlags(n int, cfg Config) *[]uint8 {
	var hookPCs []ir.PC
	hookAll := false
	if cfg.Hook != nil {
		if h, ok := cfg.Hook.(PCHook); ok {
			hookPCs = h.HookPCs()
		} else {
			hookAll = true
		}
	}
	if len(cfg.WatchPCs) == 0 && len(hookPCs) == 0 && !hookAll {
		return nil
	}
	buf, _ := flagPool.Get().(*[]uint8)
	if buf == nil || cap(*buf) < n {
		buf = new([]uint8)
		*buf = make([]uint8, n)
	}
	flags := (*buf)[:n]
	clear(flags)
	*buf = flags
	if hookAll {
		for i := range flags {
			flags[i] = pcHook
		}
	}
	for _, pc := range hookPCs {
		if int(pc) >= 0 && int(pc) < n {
			flags[pc] |= pcHook
		}
	}
	for pc, on := range cfg.WatchPCs {
		if on && int(pc) >= 0 && int(pc) < n {
			flags[pc] |= pcWatch
		}
	}
	return buf
}

// before runs what pcFlags asks for ahead of the instruction at pc
// (f is pcFlags[pc], non-zero): the watch record, then the hook,
// whose cost is charged to the clock.
func (v *VM) before(tid int, pc ir.PC, f uint8) {
	if f&pcWatch != 0 {
		v.watch = append(v.watch, WatchEvent{PC: pc, Thread: tid, Time: v.clock})
	}
	if f&pcHook != 0 {
		if cost := v.cfg.Hook.Before(tid, v.mod.InstrAt(pc), v.liveCount(), v.clock); cost > 0 {
			v.clock += cost
		}
	}
}

// randPool recycles the scheduler's generators across runs. Seeding
// a used generator yields the same sequence as a new one, so a run
// pays for the seeding but not for allocating math/rand's 4.9 KB of
// state afresh.
var randPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// allocGlobals lays out the module's globals and stores their
// initializers. It asserts that the compiler's precomputed global
// addresses agree with the VM's allocator — the invariant that lets
// compiled code resolve @global operands to pool constants. The two
// derivations share one formula, so a mismatch is a bug.
func (v *VM) allocGlobals() {
	v.globalAddrs = v.prog.GlobalAddrs
	ok := len(v.globalAddrs) == len(v.mod.Globals)
	for i, g := range v.mod.Globals {
		addr := v.mem.alloc(wordsOf(g.Typ))
		ok = ok && addr == v.globalAddrs[i]
		if g.Init != nil {
			v.mem.store(addr, g.Init.Val)
		}
	}
	if !ok {
		panic("vm: compiled global addresses disagree with the VM's allocation")
	}
}

// compiledProgram returns the module's compiled bytecode, building
// and caching it on the module on first use. The cache is keyed by
// module version, so re-finalizing invalidates it.
func compiledProgram(mod *ir.Module) *bytecode.Program {
	ver := mod.Version()
	if prog, ok := mod.Compiled(ver).(*bytecode.Program); ok {
		return prog
	}
	prog := bytecode.Compile(mod)
	mod.SetCompiled(ver, prog)
	return prog
}

// Run executes mod to completion under cfg and returns the result.
func Run(mod *ir.Module, cfg Config) *Result {
	return New(mod, cfg).Run()
}

func wordsOf(t ir.Type) int64 {
	w := t.Size() / 8
	if w <= 0 {
		w = 1
	}
	return w
}

// GlobalAddr returns the address of a global; it exists for tests.
func (v *VM) GlobalAddr(name string) int64 {
	for i, g := range v.mod.Globals {
		if g.Name == name {
			return v.globalAddrs[i]
		}
	}
	return 0
}

// LoadWord reads a word of VM memory; it exists for tests.
func (v *VM) LoadWord(addr int64) int64 { return v.mem.load(addr) }

func (v *VM) spawnThread(fn *ir.Func, args []int64) int {
	id := len(v.threads)
	var fr *frame
	if v.prog != nil {
		fi := v.mod.FuncIndex(fn)
		info := &v.prog.Funcs[fi]
		fr = &frame{fn: fn, code: v.prog.Code, cip: info.Start,
			regs: make([]int64, info.NumRegs), retReg: -1}
		for i, a := range args {
			fr.regs[info.Params[i]] = a
		}
	} else {
		fr = &frame{fn: fn, block: fn.Entry(), regs: make([]int64, len(fn.Regs)), retReg: -1}
		for i, a := range args {
			fr.regs[fn.Params[i].Index] = a
		}
	}
	t := &thread{id: id, stack: []*frame{fr}, state: tRunnable}
	v.threads = append(v.threads, t)
	v.nLive++
	if v.nLive > v.maxLive {
		v.maxLive = v.nLive
	}
	v.emit(TraceEvent{Kind: EvThreadStart, Tid: id, Time: v.clock,
		From: ir.NoPC, To: fn.Entry().FirstPC(), Live: v.liveCount()})
	return id
}

// liveCount returns the number of live (non-exited) threads. It is
// maintained incrementally — spawn increments, thread exit decrements
// — so trace-event construction stays O(1).
func (v *VM) liveCount() int { return v.nLive }

func (v *VM) emit(ev TraceEvent) {
	if v.cfg.Sink != nil {
		if cost := v.cfg.Sink.Event(ev); cost > 0 {
			v.clock += cost
		}
	}
	switch ev.Kind {
	case EvCondBranch, EvUncondBranch, EvCall, EvIndirectCall, EvRet:
		v.branches++
	}
}

func (v *VM) fail(kind FailureKind, pc ir.PC, tid int, format string, args ...any) {
	if v.failure != nil {
		return
	}
	v.failure = &Failure{
		Kind:   kind,
		PC:     pc,
		Thread: tid,
		Time:   v.clock,
		Msg:    fmt.Sprintf(format, args...),
	}
}

// Run executes the program until completion, failure, or step limit.
// The run's pooled state — the scheduler's generator, seeded with
// Config.Seed, and the per-PC flag table — is held only while Run
// runs.
func (v *VM) Run() *Result {
	v.rng = randPool.Get().(*rand.Rand)
	v.rng.Seed(v.cfg.Seed)
	if v.flagBuf = takePCFlags(v.mod.NumInstrs(), v.cfg); v.flagBuf != nil {
		v.pcFlags = *v.flagBuf
	}
	var res *Result
	if v.prog != nil {
		res = v.runBytecode()
	} else {
		res = v.runTreeWalk()
	}
	randPool.Put(v.rng)
	if v.flagBuf != nil {
		flagPool.Put(v.flagBuf)
	}
	v.rng, v.pcFlags, v.flagBuf = nil, nil, nil
	return res
}

// runTreeWalk is the tree-walking interpreter's run loop.
func (v *VM) runTreeWalk() *Result {
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
		runnable := v.runnableIDs()
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
		v.step(v.threads[v.cur])
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

// sleep parks t until the virtual time until.
func (v *VM) sleep(t *thread, until int64) {
	t.state = tSleeping
	t.wakeAt = until
	if v.nSleeping == 0 || until < v.nextWake {
		v.nextWake = until
	}
	v.nSleeping++
}

// wakeSleepers resumes every sleeper due at the current clock, in
// thread order. A wake's trace event may charge sink cost, so a
// later thread in the scan can come due during it, exactly as the
// clock dictates.
func (v *VM) wakeSleepers() {
	if v.nSleeping == 0 || v.clock < v.nextWake {
		return
	}
	next := int64(math.MaxInt64)
	for _, t := range v.threads {
		if t.state != tSleeping {
			continue
		}
		if t.wakeAt > v.clock {
			next = min(next, t.wakeAt)
			continue
		}
		t.state = tRunnable
		v.nSleeping--
		// A wake is a resume point even when no thread switch
		// happens (the sleeper may be the only runnable thread),
		// so tracers sync here too.
		v.emit(TraceEvent{Kind: EvContextSwitch, Tid: t.id, Time: t.wakeAt,
			From: ir.NoPC, To: t.curPC(), Switched: false, Live: v.liveCount()})
	}
	v.nextWake = next
}

func (v *VM) runnableIDs() []int {
	ids := make([]int, 0, len(v.threads))
	for _, t := range v.threads {
		if t.state == tRunnable {
			ids = append(ids, t.id)
		}
	}
	return ids
}

func (v *VM) earliestWake() (int64, bool) {
	return v.nextWake, v.nSleeping > 0
}

// schedule decides which thread executes the next instruction,
// preempting at quantum expiry.
func (v *VM) schedule(runnable []int) {
	curT := v.threads[v.cur]
	if curT.state == tRunnable && v.clock < curT.quantumEnd {
		return
	}
	next := runnable[v.rng.Intn(len(runnable))]
	t := v.threads[next]
	span := v.cfg.QuantumMax - v.cfg.QuantumMin
	q := v.cfg.QuantumMin
	if span > 0 {
		q += v.rng.Int63n(span + 1)
	}
	t.quantumEnd = v.clock + q
	switched := next != v.cur
	if switched {
		// A preempted (still-runnable) thread is descheduled here;
		// blocking and sleeping threads were paused in step().
		if prev := v.threads[v.cur]; prev.state == tRunnable {
			v.pauseThread(prev)
		}
		v.clock += v.cfg.CtxSwitchCost
	}
	// Every scheduling decision is a resume point: tracers sync the
	// resumed thread's stream here (PC + timestamp), matching the
	// PGE packets hardware tracers emit when tracing resumes.
	v.emit(TraceEvent{Kind: EvContextSwitch, Tid: next, Time: v.clock,
		From: ir.NoPC, To: t.curPC(), Switched: switched, Live: v.liveCount()})
	v.cur = next
}

// pauseThread closes a thread's trace timing window at the moment it
// stops executing (block, sleep, or preemption) — the PGD analogue.
func (v *VM) pauseThread(t *thread) {
	if t.state == tExited || len(t.stack) == 0 {
		return
	}
	v.emit(TraceEvent{Kind: EvPause, Tid: t.id, Time: v.clock,
		From: ir.NoPC, To: t.curPC(), Live: v.liveCount()})
}

// reportHang fires when no thread can make progress. If a waits-for
// cycle among lock waiters exists, the failure is reported as a
// deadlock anchored at a lock attempt inside the cycle.
func (v *VM) reportHang() {
	// Build waits-for edges: blocked thread -> thread it waits on.
	// Threads waiting on a condition variable wait on no specific
	// thread, so they form no edge; a hang dominated by them is a
	// lost wakeup, not a lock cycle.
	waitsFor := make(map[int]int)
	for _, t := range v.threads {
		switch t.state {
		case tBlockedLock:
			if owner, ok := v.lockOwner[t.waitLock]; ok {
				waitsFor[t.id] = owner
			}
		case tBlockedJoin:
			waitsFor[t.id] = t.waitTid
		}
	}
	if cycle := findCycle(waitsFor); len(cycle) > 0 {
		pcs := make([]ir.PC, 0, len(cycle))
		for _, tid := range cycle {
			pcs = append(pcs, v.threads[tid].curPC())
		}
		head := cycle[0]
		v.fail(FailDeadlock, v.threads[head].curPC(), head,
			"deadlock among %d threads", len(cycle))
		v.failure.DeadlockPCs = pcs
		v.failure.DeadlockTids = append([]int(nil), cycle...)
		return
	}
	// A thread stuck in a condition wait with no lock cycle is the
	// classic lost wakeup: anchor the failure at the wait so the
	// diagnosis can find the mis-ordered notify.
	for _, t := range v.threads {
		if t.state == tBlockedCond {
			v.fail(FailDeadlock, t.curPC(), t.id,
				"hang: thread %d waits on a condition that is never notified", t.id)
			return
		}
	}
	// Hang without a lock cycle (e.g. join on a blocked thread or a
	// lock whose owner exited).
	for _, t := range v.threads {
		if t.state == tBlockedLock || t.state == tBlockedJoin {
			v.fail(FailDeadlock, t.curPC(), t.id, "hang: no runnable threads")
			return
		}
	}
	v.fail(FailDeadlock, ir.NoPC, 0, "hang: no runnable threads")
}

// findCycle returns the thread ids along one cycle of the waits-for
// graph, or nil.
func findCycle(waitsFor map[int]int) []int {
	for start := range waitsFor {
		seen := map[int]int{start: 0}
		path := []int{start}
		cur := start
		for {
			next, ok := waitsFor[cur]
			if !ok {
				break
			}
			if at, visited := seen[next]; visited {
				return path[at:]
			}
			seen[next] = len(path)
			path = append(path, next)
			cur = next
		}
	}
	return nil
}

// checkDeadlockFrom detects a waits-for cycle as soon as a thread
// blocks on a lock, mirroring an OS deadlock detector; the failing PC
// is the lock attempt that closed the cycle.
func (v *VM) checkDeadlockFrom(tid int) {
	waitsFor := make(map[int]int)
	for _, t := range v.threads {
		if t.state == tBlockedLock {
			if owner, ok := v.lockOwner[t.waitLock]; ok {
				waitsFor[t.id] = owner
			}
		}
	}
	seen := map[int]bool{tid: true}
	path := []int{tid}
	cur := tid
	for {
		next, ok := waitsFor[cur]
		if !ok {
			return
		}
		if next == tid {
			pcs := make([]ir.PC, 0, len(path))
			for _, id := range path {
				pcs = append(pcs, v.threads[id].curPC())
			}
			v.fail(FailDeadlock, v.threads[tid].curPC(), tid,
				"deadlock among %d threads", len(path))
			v.failure.DeadlockPCs = pcs
			v.failure.DeadlockTids = append([]int(nil), path...)
			return
		}
		if seen[next] || v.threads[next].state != tBlockedLock {
			return
		}
		seen[next] = true
		path = append(path, next)
		cur = next
	}
}
