// Package traceproc implements trace processing — steps 2 and 3 of
// Lazy Diagnosis (Figure 2 of the Snorlax paper).
//
// Step 2 turns decoded control-flow traces into the set of executed
// static instructions, which scope-restricts the hybrid points-to
// analysis (§4.2). Step 3 turns the same traces plus their coarse
// timing into a partially-ordered dynamic instruction trace: dynamic
// instruction instances across threads are ordered only when their
// timestamp uncertainty windows do not overlap. Per the coarse
// interleaving hypothesis, that partial order is enough to order the
// target events of real concurrency bugs.
package traceproc

import (
	"sort"

	"snorlax/internal/ir"
	"snorlax/internal/pointsto"
	"snorlax/internal/pt"
)

// DynEvent is one dynamic instruction instance in the merged trace.
type DynEvent struct {
	// Tid is the executing thread.
	Tid int
	// Seq is the instance's position within its thread's decoded
	// stream (program order).
	Seq int
	// PC identifies the static instruction.
	PC ir.PC
	// Time and Uncert are the reconstructed timestamp window
	// [Time, Time+Uncert].
	Time   int64
	Uncert int64
}

// Trace is the partially-ordered dynamic instruction trace.
type Trace struct {
	// Events holds all threads' events sorted by Time (ties broken
	// by thread then sequence, for determinism).
	Events []DynEvent
}

// Process runs steps 2 and 3 on decoded thread traces, returning the
// executed-instruction scope and the merged dynamic trace.
func Process(traces []*pt.ThreadTrace) (pointsto.Scope, *Trace) {
	tr := Merge(traces)
	scope := make(pointsto.Scope)
	for _, ev := range tr.Events {
		scope[ev.PC] = true
	}
	return scope, tr
}

// Merge runs step 3 alone: it merges decoded thread traces into one
// trace ordered by (Time, Tid, Seq). Success traces need only this;
// the scope is built from the failing trace.
//
// Each thread's stream is already in program order, and a real decode
// never moves its clock backwards, so the merged order is a k-way
// merge of the streams. A stream whose timestamps decrease (only
// synthetic traces have one) falls back to sorting every event.
func Merge(traces []*pt.ThreadTrace) *Trace {
	total := 0
	monotone := true
	for _, tt := range traces {
		total += len(tt.Instrs)
		for i := 1; i < len(tt.Instrs) && monotone; i++ {
			monotone = tt.Instrs[i].Time >= tt.Instrs[i-1].Time
		}
	}
	events := make([]DynEvent, 0, total)
	if !monotone {
		for _, tt := range traces {
			for i := range tt.Instrs {
				events = append(events, eventAt(tt, i))
			}
		}
		sort.Slice(events, func(i, j int) bool { return less(events[i], events[j]) })
		return &Trace{Events: events}
	}

	type cursor struct {
		tt   *pt.ThreadTrace
		next int
		head DynEvent
	}
	live := make([]cursor, 0, len(traces))
	for _, tt := range traces {
		if len(tt.Instrs) > 0 {
			live = append(live, cursor{tt: tt, next: 1, head: eventAt(tt, 0)})
		}
	}
	for len(live) > 0 {
		// Find the earliest head and the runner-up; the earliest
		// stream then emits until its head passes the runner-up's.
		k, r := 0, -1
		for j := 1; j < len(live); j++ {
			switch {
			case less(live[j].head, live[k].head):
				k, r = j, k
			case r < 0 || less(live[j].head, live[r].head):
				r = j
			}
		}
		c := &live[k]
		for {
			events = append(events, c.head)
			if c.next == len(c.tt.Instrs) {
				live = append(live[:k], live[k+1:]...)
				break
			}
			c.head = eventAt(c.tt, c.next)
			c.next++
			if r >= 0 && less(live[r].head, c.head) {
				break
			}
		}
	}
	return &Trace{Events: events}
}

// eventAt builds the merged-trace event for tt.Instrs[i].
func eventAt(tt *pt.ThreadTrace, i int) DynEvent {
	di := tt.Instrs[i]
	seq := i
	if tt.Seqs != nil {
		seq = tt.Seqs[i]
	}
	return DynEvent{Tid: tt.Tid, Seq: seq, PC: di.PC, Time: di.Time, Uncert: di.Uncert}
}

// less is the merged-trace order: time, then thread, then sequence.
func less(a, b DynEvent) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Tid != b.Tid {
		return a.Tid < b.Tid
	}
	return a.Seq < b.Seq
}

// Before reports whether a is ordered before b in the partial order:
// within a thread, decoded program order; across threads, only when
// a's uncertainty window ends before b's begins. This conservative
// cross-thread rule is what makes the order partial — and per the
// coarse interleaving hypothesis, target events of real bugs are
// separated by far more than the window width.
func Before(a, b DynEvent) bool {
	if a.Tid == b.Tid {
		return a.Seq < b.Seq
	}
	return a.Time+a.Uncert < b.Time
}

// Ordered reports whether a and b are comparable in the partial order.
func Ordered(a, b DynEvent) bool {
	return Before(a, b) || Before(b, a)
}

// InstancesOf returns the dynamic instances of the given static
// instruction, in merged-trace order.
func (t *Trace) InstancesOf(pc ir.PC) []DynEvent {
	var out []DynEvent
	for _, ev := range t.Events {
		if ev.PC == pc {
			out = append(out, ev)
		}
	}
	return out
}

// LastInstanceOf returns the latest dynamic instance of pc, or false.
func (t *Trace) LastInstanceOf(pc ir.PC) (DynEvent, bool) {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].PC == pc {
			return t.Events[i], true
		}
	}
	return DynEvent{}, false
}

// LastInstanceOfIn returns the latest instance of pc executed by tid.
func (t *Trace) LastInstanceOfIn(pc ir.PC, tid int) (DynEvent, bool) {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].PC == pc && t.Events[i].Tid == tid {
			return t.Events[i], true
		}
	}
	return DynEvent{}, false
}

// Filter returns the events satisfying keep, preserving order.
func (t *Trace) Filter(keep func(DynEvent) bool) []DynEvent {
	var out []DynEvent
	for _, ev := range t.Events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Threads returns the distinct thread ids present, ascending.
func (t *Trace) Threads() []int {
	seen := map[int]bool{}
	for _, ev := range t.Events {
		seen[ev.Tid] = true
	}
	out := make([]int, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}
