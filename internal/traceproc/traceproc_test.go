package traceproc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

func ev(tid, seq int, pc ir.PC, time, uncert int64) DynEvent {
	return DynEvent{Tid: tid, Seq: seq, PC: pc, Time: time, Uncert: uncert}
}

func TestBeforeSameThreadUsesSequence(t *testing.T) {
	a := ev(1, 0, 10, 100, 1000)
	b := ev(1, 1, 11, 100, 1000) // identical times, later seq
	if !Before(a, b) || Before(b, a) {
		t.Error("same-thread order must follow sequence numbers")
	}
}

func TestBeforeCrossThreadNeedsDisjointWindows(t *testing.T) {
	a := ev(1, 0, 10, 100, 50)
	b := ev(2, 0, 11, 200, 50)
	if !Before(a, b) {
		t.Error("disjoint windows must order")
	}
	// Overlapping windows: unordered.
	c := ev(2, 0, 11, 120, 50)
	if Before(a, c) || Before(c, a) {
		t.Error("overlapping windows must be unordered")
	}
	if Ordered(a, c) {
		t.Error("Ordered must be false for overlap")
	}
	if !Ordered(a, b) {
		t.Error("Ordered must be true for disjoint")
	}
}

func TestBeforeBoundary(t *testing.T) {
	// Window [100,150] vs time 150: touching → unordered (conservative).
	a := ev(1, 0, 10, 100, 50)
	b := ev(2, 0, 11, 150, 50)
	if Before(a, b) {
		t.Error("touching windows must not order")
	}
	b2 := ev(2, 0, 11, 151, 50)
	if !Before(a, b2) {
		t.Error("just-disjoint windows must order")
	}
}

func TestProcessMergesAndSorts(t *testing.T) {
	t1 := &pt.ThreadTrace{Tid: 0, Instrs: []pt.DynInstr{
		{PC: 5, Time: 100, Uncert: 10},
		{PC: 6, Time: 300, Uncert: 10},
	}}
	t2 := &pt.ThreadTrace{Tid: 1, Instrs: []pt.DynInstr{
		{PC: 7, Time: 200, Uncert: 10},
	}}
	scope, tr := Process([]*pt.ThreadTrace{t1, t2})
	if len(scope) != 3 {
		t.Fatalf("scope size = %d", len(scope))
	}
	if !scope[5] || !scope[6] || !scope[7] {
		t.Error("scope missing PCs")
	}
	if len(tr.Events) != 3 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	wantOrder := []ir.PC{5, 7, 6}
	for i, want := range wantOrder {
		if tr.Events[i].PC != want {
			t.Errorf("event %d PC = %d, want %d", i, tr.Events[i].PC, want)
		}
	}
}

func TestInstancesQueries(t *testing.T) {
	t1 := &pt.ThreadTrace{Tid: 0, Instrs: []pt.DynInstr{
		{PC: 5, Time: 100}, {PC: 5, Time: 200}, {PC: 9, Time: 300},
	}}
	t2 := &pt.ThreadTrace{Tid: 1, Instrs: []pt.DynInstr{
		{PC: 5, Time: 250},
	}}
	_, tr := Process([]*pt.ThreadTrace{t1, t2})
	if got := len(tr.InstancesOf(5)); got != 3 {
		t.Errorf("InstancesOf(5) = %d, want 3", got)
	}
	last, ok := tr.LastInstanceOf(5)
	if !ok || last.Time != 250 || last.Tid != 1 {
		t.Errorf("LastInstanceOf(5) = %+v", last)
	}
	lastIn, ok := tr.LastInstanceOfIn(5, 0)
	if !ok || lastIn.Time != 200 {
		t.Errorf("LastInstanceOfIn(5, 0) = %+v", lastIn)
	}
	if _, ok := tr.LastInstanceOf(99); ok {
		t.Error("LastInstanceOf(99) should miss")
	}
	threads := tr.Threads()
	if len(threads) != 2 || threads[0] != 0 || threads[1] != 1 {
		t.Errorf("Threads() = %v", threads)
	}
	mem := tr.Filter(func(e DynEvent) bool { return e.PC == 9 })
	if len(mem) != 1 {
		t.Errorf("Filter = %v", mem)
	}
}

func TestSeqAssignedPerThread(t *testing.T) {
	t1 := &pt.ThreadTrace{Tid: 4, Instrs: []pt.DynInstr{
		{PC: 1, Time: 100}, {PC: 2, Time: 50}, // decoder order wins per thread
	}}
	_, tr := Process([]*pt.ThreadTrace{t1})
	// Event sorted by time puts PC2 first, but Seq keeps program order.
	a := tr.Events[0]
	b := tr.Events[1]
	if a.PC != 2 || b.PC != 1 {
		t.Fatalf("sort order wrong: %v %v", a, b)
	}
	if !Before(b, a) {
		// b has Seq 0, a has Seq 1 → b before a despite timestamps.
		t.Error("same-thread sequence must dominate timestamps")
	}
}

func TestBeforeIsStrictPartialOrder(t *testing.T) {
	// Property: Before is irreflexive and asymmetric over arbitrary
	// events (the partial order's soundness requirements).
	rng := rand.New(rand.NewSource(42))
	events := make([]DynEvent, 60)
	for i := range events {
		events[i] = DynEvent{
			Tid:    rng.Intn(4),
			Seq:    rng.Intn(20),
			PC:     ir.PC(rng.Intn(10)),
			Time:   int64(rng.Intn(1000)),
			Uncert: int64(rng.Intn(200)),
		}
	}
	for _, a := range events {
		if a.Tid >= 0 && Before(a, a) {
			t.Fatalf("Before reflexive for %+v", a)
		}
		for _, b := range events {
			if a == b {
				continue
			}
			if Before(a, b) && Before(b, a) {
				t.Fatalf("Before symmetric for %+v / %+v", a, b)
			}
		}
	}
}

func TestBeforeTransitiveCrossThread(t *testing.T) {
	// Cross-thread Before is transitive when uncertainty windows are
	// nonnegative: disjointness chains.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		mk := func(tid int) DynEvent {
			return DynEvent{Tid: tid, Time: int64(rng.Intn(500)), Uncert: int64(rng.Intn(100))}
		}
		a, b, c := mk(0), mk(1), mk(2)
		if Before(a, b) && Before(b, c) && !Before(a, c) {
			t.Fatalf("cross-thread transitivity broken: %+v %+v %+v", a, b, c)
		}
	}
}

// sortedReference is the order Merge must produce, computed the
// obvious way: every event, sorted by (Time, Tid, Seq).
func sortedReference(traces []*pt.ThreadTrace) []DynEvent {
	var out []DynEvent
	for _, tt := range traces {
		for i, di := range tt.Instrs {
			seq := i
			if tt.Seqs != nil {
				seq = tt.Seqs[i]
			}
			out = append(out, DynEvent{Tid: tt.Tid, Seq: seq, PC: di.PC, Time: di.Time, Uncert: di.Uncert})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Seq < b.Seq
	})
	return out
}

// randomStreams builds 1-5 threads of non-decreasing timestamps drawn
// from a small range, so cross-thread time ties are common. Half the
// threads carry gapped Seqs, as a watched decode produces.
func randomStreams(rng *rand.Rand) []*pt.ThreadTrace {
	var traces []*pt.ThreadTrace
	for _, tid := range rng.Perm(5)[:1+rng.Intn(5)] {
		tt := &pt.ThreadTrace{Tid: tid}
		now, seq := int64(rng.Intn(5)), 0
		for i, n := 0, rng.Intn(30); i < n; i++ {
			now += int64(rng.Intn(3)) // 0 keeps a tie with the previous event
			seq += 1 + rng.Intn(3)
			tt.Instrs = append(tt.Instrs, pt.DynInstr{PC: ir.PC(rng.Intn(8)), Time: now, Uncert: int64(rng.Intn(4))})
			tt.Seqs = append(tt.Seqs, seq)
		}
		if tid%2 == 0 {
			tt.Seqs = nil
		}
		traces = append(traces, tt)
	}
	return traces
}

func TestMergeEqualsSortOnMonotoneStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		traces := randomStreams(rng)
		want := sortedReference(traces)
		if got := Merge(traces).Events; !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge\n %v\nwant\n %v", trial, got, want)
		}
	}
}

func TestMergeTimeTieGoesToLowerTid(t *testing.T) {
	hi := &pt.ThreadTrace{Tid: 7, Instrs: []pt.DynInstr{{PC: 1, Time: 100}, {PC: 2, Time: 100}}}
	lo := &pt.ThreadTrace{Tid: 3, Instrs: []pt.DynInstr{{PC: 3, Time: 100}, {PC: 4, Time: 200}}}
	var got []ir.PC
	for _, ev := range Merge([]*pt.ThreadTrace{hi, lo}).Events {
		got = append(got, ev.PC)
	}
	if want := []ir.PC{3, 1, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("merged PCs %v, want %v", got, want)
	}
}

func TestMergeFallsBackToSortOnNonMonotoneStream(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		traces := randomStreams(rng)
		// Move one event of one non-empty stream back in time.
		for _, tt := range traces {
			if len(tt.Instrs) > 1 {
				i := 1 + rng.Intn(len(tt.Instrs)-1)
				tt.Instrs[i].Time = tt.Instrs[i-1].Time - 1 - int64(rng.Intn(5))
				break
			}
		}
		want := sortedReference(traces)
		if got := Merge(traces).Events; !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge\n %v\nwant\n %v", trial, got, want)
		}
	}
}
