package vm

import "snorlax/internal/ir"

// EventKind classifies the control-flow events the VM reports to a
// TraceSink. These are exactly the events a hardware control-flow
// tracer observes.
type EventKind int

// The trace event kinds.
const (
	// EvCondBranch is an executed conditional branch; Taken reports
	// its direction (a TNT bit in Intel PT terms).
	EvCondBranch EventKind = iota
	// EvUncondBranch is an executed unconditional branch. Hardware
	// tracers emit nothing for these (the decoder infers the target
	// statically), but the VM still reports them so sinks can count
	// control transfers.
	EvUncondBranch
	// EvCall is a direct call; the target is static.
	EvCall
	// EvIndirectCall is a call through a function pointer; the target
	// is dynamic (a TIP packet in Intel PT terms).
	EvIndirectCall
	// EvRet is a function return; the target is the return site.
	EvRet
	// EvThreadStart is the first event of a thread; To is the entry
	// PC of the spawned function (a PSB sync point).
	EvThreadStart
	// EvThreadEnd marks thread exit.
	EvThreadEnd
	// EvContextSwitch is a scheduler decision resuming this thread
	// (To carries the PC it resumes at). Tracers treat it as a
	// timestamped sync point — the Intel PT PGE analogue — and pay
	// per-thread buffer management costs here.
	EvContextSwitch
	// EvPause announces that this thread was descheduled (To carries
	// the PC it will resume at). Tracers write a timestamped sync —
	// the Intel PT PGD analogue — which closes the timing window of
	// the thread's packet-free trailing instructions.
	EvPause
)

func (k EventKind) String() string {
	switch k {
	case EvCondBranch:
		return "condbr"
	case EvUncondBranch:
		return "br"
	case EvCall:
		return "call"
	case EvIndirectCall:
		return "icall"
	case EvRet:
		return "ret"
	case EvThreadStart:
		return "thread-start"
	case EvThreadEnd:
		return "thread-end"
	case EvContextSwitch:
		return "ctxswitch"
	case EvPause:
		return "pause"
	}
	return "event(?)"
}

// TraceEvent is one control-flow event observed by the VM.
type TraceEvent struct {
	Kind EventKind
	// Tid is the executing thread.
	Tid int
	// Time is the virtual time of the event in nanoseconds.
	Time int64
	// From is the PC of the transferring instruction (NoPC for
	// thread start).
	From ir.PC
	// To is the destination PC: branch target, callee entry, or
	// return site. NoPC for thread end.
	To ir.PC
	// Taken is the direction of a conditional branch.
	Taken bool
	// Switched reports, for EvContextSwitch, that a different thread
	// was running before (quantum renewals of the same thread emit
	// the event with Switched false — tracers still use it as a
	// timing sync point, like Intel PT's PGE packets).
	Switched bool
	// Live is the number of live (non-exited) threads at the event.
	Live int
}

// TraceSink receives control-flow events. The returned value is the
// extra virtual time in nanoseconds the event costs the executing
// thread; this is how tracing overhead (Figure 8/9 of the paper)
// emerges in measurements rather than being asserted.
type TraceSink interface {
	Event(ev TraceEvent) int64
}

// InstrHook observes instructions before they execute. The returned
// value is extra virtual time charged to the executing thread. A hook
// is called before every instruction (the Gist baseline and replay
// recording attach here) unless it also implements PCHook.
type InstrHook interface {
	Before(tid int, in ir.Instr, live int, time int64) int64
}

// PCHook is an InstrHook that needs to see only some instructions,
// the way a hardware watchpoint costs nothing until its address
// executes. The VM reads HookPCs once, when Run starts, and
// calls Before only at the listed PCs, with exactly the arguments an
// every-instruction hook would get there. An empty list means Before
// is never called; PCs outside the module are ignored.
type PCHook interface {
	InstrHook
	HookPCs() []ir.PC
}

// AccessHook observes memory and synchronization operations with
// their resolved runtime addresses — the information an
// instrumentation-based dynamic analysis (e.g. a lockset race
// detector) needs. It is called after address evaluation and before
// the operation takes effect.
type AccessHook interface {
	// OnAccess reports a load (write=false) or store (write=true) to
	// addr by tid.
	OnAccess(tid int, in ir.Instr, addr int64, write bool, time int64)
	// OnLock reports a completed lock acquisition (acquired=true) or
	// a release (acquired=false) of the mutex at addr.
	OnLock(tid int, in ir.Instr, addr int64, acquired bool, time int64)
}

// GateHook may veto an instruction's execution: when Allow returns
// false the thread backs off (a short virtual sleep) and retries.
// Replay engines use this to enforce a recorded cross-thread order of
// shared accesses.
type GateHook interface {
	Allow(tid int, in ir.Instr, time int64) bool
}
