// Package pattern implements bug-pattern computation — step 6 of Lazy
// Diagnosis (§4.4 of the Snorlax paper).
//
// It takes the type-ranked candidate instructions and the
// partially-ordered dynamic instruction trace, and enumerates the
// concurrency-bug patterns of the paper's Figure 1 that are
// consistent with the observed partial order:
//
//   - deadlocks: cyclic lock-acquisition among threads;
//   - order violations: two accesses to the same location from
//     different threads, at least one a write, in the observed order;
//   - single-variable atomicity violations: RWR, WWR, RWW, WRW
//     triples where the first and third access share a thread and the
//     middle access comes from another thread.
//
// Partial flow sensitivity (Figure 5) enters exactly here: the
// flow-insensitive points-to analysis proposes the candidates, and
// the coarse timestamps order their dynamic instances.
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"snorlax/internal/ir"
	"snorlax/internal/ranking"
	"snorlax/internal/traceproc"
)

// Kind classifies a pattern.
type Kind int

// The pattern kinds.
const (
	KindDeadlock Kind = iota
	KindOrderViolation
	KindAtomicityViolation
	// KindMultiVarAtomicity extends the paper's Figure 1 with
	// multi-location invariants (§7 future work): the first and third
	// access read different locations bound by one invariant.
	KindMultiVarAtomicity
)

func (k Kind) String() string {
	switch k {
	case KindDeadlock:
		return "deadlock"
	case KindOrderViolation:
		return "order-violation"
	case KindAtomicityViolation:
		return "atomicity-violation"
	case KindMultiVarAtomicity:
		return "multivar-atomicity"
	}
	return "pattern(?)"
}

// Event is one dynamic event participating in a pattern witness.
type Event struct {
	PC   ir.PC
	Tid  int
	Time int64
}

// Pattern is one candidate root cause: a static event signature (the
// PCs and their required ordering/thread structure) plus the dynamic
// witness found in the failing trace.
type Pattern struct {
	Kind Kind
	// Sub is the access-kind signature: "WR", "RW", "WW" for order
	// violations; "RWR", "WWR", "RWW", "WRW" for atomicity
	// violations; "DL<n>" for deadlocks over n threads.
	Sub string
	// PCs is the static signature in pattern order. For deadlocks it
	// is flattened (held, attempt) pairs, one pair per thread.
	PCs []ir.PC
	// Events is the witness from the failing execution.
	Events []Event
	// Rank is the best (lowest) type rank among the non-failing
	// instructions in the pattern; patterns from rank-1 candidates
	// are examined first (§4.3).
	Rank int
	// Absence marks the reversed order-violation direction of
	// Figure 1(b): the failing access (PCs[0]) executed before the
	// candidate access (PCs[1]) ever did — e.g. a read that beat its
	// initializing write. Such a pattern is matched by the absence of
	// the candidate before the failing access, since the candidate
	// never gets to execute in the failing run.
	Absence bool
}

// Key returns the canonical identity used to match the pattern across
// executions for statistical diagnosis.
func (p *Pattern) Key() string {
	parts := make([]string, len(p.PCs))
	for i, pc := range p.PCs {
		parts[i] = fmt.Sprintf("%d", pc)
	}
	key := fmt.Sprintf("%s:%s:%s", p.Kind, p.Sub, strings.Join(parts, ","))
	if p.Absence {
		key += ":first"
	}
	return key
}

func (p *Pattern) String() string { return p.Key() }

// FailureInfo is the slice of the client's failure report that
// pattern computation needs.
type FailureInfo struct {
	Deadlock bool
	// PC and Tid locate the failing instruction.
	PC   ir.PC
	Tid  int
	Time int64
	// DeadlockPCs/DeadlockTids describe the waits-for cycle, one
	// blocked lock attempt per participating thread.
	DeadlockPCs  []ir.PC
	DeadlockTids []int
}

// Config bounds the pattern search.
type Config struct {
	// MaxInstances caps how many dynamic instances per (candidate PC,
	// thread) are considered, newest first (default 3).
	MaxInstances int
}

func (c Config) withDefaults() Config {
	if c.MaxInstances == 0 {
		c.MaxInstances = 3
	}
	return c
}

// AccessKind returns 'R' for reads, 'W' for writes, 'L' for lock
// attempts, 'U' for unlocks and 0 for other instructions. Failing
// address computations (fieldaddr on a corrupt base) count as reads.
// Condition-variable operations map onto the read/write duality:
// a wait consumes the condition ('R'), a notify produces it ('W') —
// which is exactly why a lost wakeup is an order violation.
func AccessKind(in ir.Instr) byte {
	switch in.Op() {
	case ir.OpLoad, ir.OpFieldAddr, ir.OpIndexAddr, ir.OpWait:
		return 'R'
	case ir.OpStore, ir.OpNotify:
		return 'W'
	case ir.OpLock:
		return 'L'
	case ir.OpUnlock:
		return 'U'
	}
	return 0
}

// Compute enumerates the candidate bug patterns for a failure.
//
// For deadlocks it builds the cyclic acquisition pattern from the
// waits-for cycle and the lock events in the trace. For crashes it
// pairs/triples candidate instances with the failing instruction's
// final dynamic instance, honoring the partial order.
func Compute(mod *ir.Module, fi FailureInfo, cands []ranking.Candidate, tr *traceproc.Trace, cfg Config) []*Pattern {
	cfg = cfg.withDefaults()
	if fi.Deadlock {
		return computeDeadlock(mod, fi, tr)
	}
	return computeViolations(mod, fi, cands, tr, cfg)
}

// computeDeadlock reconstructs the deadlock pattern of Figure 1(a):
// for each thread in the waits-for cycle, the lock it already held
// and the acquisition it blocked on.
func computeDeadlock(mod *ir.Module, fi FailureInfo, tr *traceproc.Trace) []*Pattern {
	p := &Pattern{Kind: KindDeadlock, Sub: fmt.Sprintf("DL%d", len(fi.DeadlockPCs)), Rank: 1}
	for i, attemptPC := range fi.DeadlockPCs {
		tid := fi.DeadlockTids[i]
		attempt, ok := tr.LastInstanceOfIn(attemptPC, tid)
		if !ok {
			attempt = traceproc.DynEvent{Tid: tid, PC: attemptPC, Time: fi.Time}
		}
		// The lock this thread still holds: its latest earlier lock
		// event with no intervening unlock by the same thread.
		if held, ok := heldLockBefore(mod, tr, tid, attempt); ok {
			p.PCs = append(p.PCs, held.PC, attemptPC)
			p.Events = append(p.Events,
				Event{PC: held.PC, Tid: tid, Time: held.Time},
				Event{PC: attemptPC, Tid: tid, Time: attempt.Time})
		} else {
			p.PCs = append(p.PCs, ir.NoPC, attemptPC)
			p.Events = append(p.Events, Event{PC: attemptPC, Tid: tid, Time: attempt.Time})
		}
	}
	return []*Pattern{p}
}

// heldLockBefore finds tid's most recent lock event before attempt
// with no later unlock by tid before attempt.
func heldLockBefore(mod *ir.Module, tr *traceproc.Trace, tid int, attempt traceproc.DynEvent) (traceproc.DynEvent, bool) {
	var held traceproc.DynEvent
	found := false
	for _, ev := range tr.Events {
		if ev.Tid != tid || ev.Seq >= attempt.Seq {
			continue
		}
		switch AccessKind(mod.InstrAt(ev.PC)) {
		case 'L':
			if ev.PC != attempt.PC {
				held = ev
				found = true
			}
		case 'U':
			found = false
		}
	}
	return held, found
}

// computeViolations enumerates order- and atomicity-violation
// patterns ending at the failing access (the paper's §7 assumption:
// the failing instruction is part of the pattern).
func computeViolations(mod *ir.Module, fi FailureInfo, cands []ranking.Candidate, tr *traceproc.Trace, cfg Config) []*Pattern {
	failInstr := mod.InstrAt(fi.PC)
	fKind := AccessKind(failInstr)
	if fKind != 'R' && fKind != 'W' {
		return nil
	}
	fEv, ok := tr.LastInstanceOfIn(fi.PC, fi.Tid)
	if !ok {
		fEv = traceproc.DynEvent{Tid: fi.Tid, PC: fi.PC, Time: fi.Time}
	}

	rankOf := make(map[ir.PC]int, len(cands))
	for _, c := range cands {
		rankOf[c.Instr.PC()] = c.Rank
	}

	// Collect the latest MaxInstances instances per (candidate, tid)
	// that precede the failing event in the partial order.
	type inst struct {
		ev   traceproc.DynEvent
		kind byte
		rank int
	}
	var before []inst
	perKey := map[[2]int64]int{}
	for i := len(tr.Events) - 1; i >= 0; i-- {
		ev := tr.Events[i]
		rank, isCand := rankOf[ev.PC]
		if !isCand {
			continue
		}
		if !traceproc.Before(ev, fEv) {
			continue
		}
		key := [2]int64{int64(ev.PC), int64(ev.Tid)}
		if perKey[key] >= cfg.MaxInstances {
			continue
		}
		perKey[key]++
		k := AccessKind(mod.InstrAt(ev.PC))
		before = append(before, inst{ev: ev, kind: k, rank: rank})
	}

	var found []*Pattern

	// Order violations: X (other thread) before F, at least one write.
	for _, x := range before {
		if x.ev.Tid == fEv.Tid {
			continue
		}
		if x.kind != 'W' && fKind != 'W' {
			continue // R-R is not a violation
		}
		found = append(found, &Pattern{
			Kind: KindOrderViolation,
			Sub:  string([]byte{x.kind, fKind}),
			PCs:  []ir.PC{x.ev.PC, fi.PC},
			Events: []Event{
				{PC: x.ev.PC, Tid: x.ev.Tid, Time: x.ev.Time},
				{PC: fEv.PC, Tid: fEv.Tid, Time: fEv.Time},
			},
			Rank: x.rank,
		})
	}

	// Reversed order violations (Figure 1.b, failing access first):
	// the failing access executed before a conflicting candidate ever
	// did. Witnessed by the candidate's absence before F in the
	// failing trace — the read beat its initializing write.
	for _, c := range cands {
		cKind := AccessKind(c.Instr)
		if cKind != 'W' && fKind != 'W' {
			continue
		}
		cpc := c.Instr.PC()
		anyBefore := false
		for _, ev := range tr.Events {
			if ev.PC == cpc && ev.Tid != fEv.Tid && traceproc.Before(ev, fEv) {
				anyBefore = true
				break
			}
		}
		if anyBefore {
			continue
		}
		found = append(found, &Pattern{
			Kind:    KindOrderViolation,
			Sub:     string([]byte{fKind, cKind}),
			PCs:     []ir.PC{fi.PC, cpc},
			Events:  []Event{{PC: fEv.PC, Tid: fEv.Tid, Time: fEv.Time}},
			Rank:    c.Rank,
			Absence: true,
		})
	}

	// Atomicity violations: A (failing thread) … B (other thread) … F,
	// restricted to the four single-variable patterns (Figure 1.c).
	valid := map[string]bool{"RWR": true, "WWR": true, "RWW": true, "WRW": true}
	for _, a := range before {
		if a.ev.Tid != fEv.Tid {
			continue
		}
		for _, b := range before {
			if b.ev.Tid == fEv.Tid {
				continue
			}
			if !traceproc.Before(a.ev, b.ev) {
				continue
			}
			sub := string([]byte{a.kind, b.kind, fKind})
			if !valid[sub] {
				continue
			}
			rank := a.rank
			if b.rank > rank {
				rank = b.rank
			}
			found = append(found, &Pattern{
				Kind: KindAtomicityViolation,
				Sub:  sub,
				PCs:  []ir.PC{a.ev.PC, b.ev.PC, fi.PC},
				Events: []Event{
					{PC: a.ev.PC, Tid: a.ev.Tid, Time: a.ev.Time},
					{PC: b.ev.PC, Tid: b.ev.Tid, Time: b.ev.Time},
					{PC: fEv.PC, Tid: fEv.Tid, Time: fEv.Time},
				},
				Rank: rank,
			})
		}
	}

	out := Dedupe(found)
	sortPatterns(out)
	return out
}

// Dedupe keeps the first pattern per Key, in first-seen order, and
// lowers its Rank to the best Rank among its duplicates.
func Dedupe(pats []*Pattern) []*Pattern {
	seen := make(map[string]*Pattern, len(pats))
	out := make([]*Pattern, 0, len(pats))
	for _, p := range pats {
		k := p.Key()
		if prev, ok := seen[k]; ok {
			if p.Rank < prev.Rank {
				prev.Rank = p.Rank
			}
			continue
		}
		seen[k] = p
		out = append(out, p)
	}
	return out
}

// sortPatterns orders patterns by rank then key, for determinism.
func sortPatterns(out []*Pattern) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Key() < out[j].Key()
	})
}
