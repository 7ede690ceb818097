package vm

import "snorlax/internal/ir"

// NewTreeWalk prepares a VM that runs mod on the tree-walking
// interpreter, the bytecode engine's differential oracle and the perf
// lane's normalisation reference. It is New with the compiled program
// cleared and the main thread's frame positioned by block instead of
// code offset; both engines emit the same thread-start event.
func NewTreeWalk(mod *ir.Module, cfg Config) *VM {
	v := New(mod, cfg)
	v.prog = nil
	f := v.threads[0].top()
	f.code, f.block = nil, f.fn.Entry()
	return v
}

// HoldsPooled reports whether v holds run state taken from a pool
// (the scheduler's generator or the per-PC flag table); only a
// running VM does.
func (v *VM) HoldsPooled() bool { return v.rng != nil || v.flagBuf != nil }
