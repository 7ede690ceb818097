package vm

import "snorlax/internal/ir"

// NewTreeWalk prepares a VM that runs mod on the tree-walking
// interpreter, the bytecode engine's differential oracle and the perf
// lane's normalisation reference. It is New with the compiled program
// cleared and the main thread's frame positioned by block instead of
// code offset; both engines emit the same thread-start event.
func NewTreeWalk(mod *ir.Module, cfg Config) *VM {
	v := New(mod, cfg)
	v.prog, v.watchDense = nil, nil
	f := v.threads[0].top()
	f.code, f.block = nil, f.fn.Entry()
	return v
}
