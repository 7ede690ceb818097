package pt

import (
	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

// Driver is the client-side trace driver of the paper's §5: it owns
// the encoder and can be armed to snapshot the trace rings when the
// program executes a specific instruction (the hardware-breakpoint
// ioctl of the real driver). Snorlax uses this to collect traces from
// successful executions at the PC where a failure previously occurred
// (step 8 in Figure 2).
//
// Attach d.Enc to a vm.Config as the Sink and d as the Hook. The
// Driver is a vm.PCHook: the VM calls it only at TriggerPC, and never
// when no trigger is armed, so, like the hardware watchpoint, it is
// free until it fires.
type Driver struct {
	Enc *Encoder
	// TriggerPC, when not NoPC, arms a one-shot snapshot taken just
	// before the instruction at that PC executes. Set it before the
	// run starts: the VM reads HookPCs once.
	TriggerPC ir.PC
	// TriggerSkip executes the trigger that many times before
	// snapshotting (0 = first execution).
	TriggerSkip int

	triggered bool
	snap      *Snapshot
	seen      int
}

var _ vm.PCHook = (*Driver)(nil)

// NewDriver returns a Driver tracing with cfg.
func NewDriver(cfg Config) *Driver {
	return &Driver{Enc: NewEncoder(cfg), TriggerPC: ir.NoPC}
}

// HookPCs implements vm.PCHook: the trigger PC, or none when unarmed.
func (d *Driver) HookPCs() []ir.PC {
	if d.TriggerPC == ir.NoPC {
		return nil
	}
	return []ir.PC{d.TriggerPC}
}

// Before implements vm.InstrHook: it fires the armed trigger. It adds
// no cost.
func (d *Driver) Before(tid int, in ir.Instr, live int, time int64) int64 {
	if d.triggered || d.TriggerPC == ir.NoPC || in.PC() != d.TriggerPC {
		return 0
	}
	if d.seen < d.TriggerSkip {
		d.seen++
		return 0
	}
	d.triggered = true
	d.snap = d.Enc.Snapshot()
	d.snap.Time = time
	return 0
}

// Triggered reports whether the armed trigger fired.
func (d *Driver) Triggered() bool { return d.triggered }

// TriggerSnapshot returns the snapshot captured at the trigger, or
// nil if the trigger never fired.
func (d *Driver) TriggerSnapshot() *Snapshot { return d.snap }

// FailureSnapshot captures the rings as they stand now — what the
// driver saves when a fail-stop event occurs.
func (d *Driver) FailureSnapshot(time int64) *Snapshot {
	s := d.Enc.Snapshot()
	s.Time = time
	return s
}
