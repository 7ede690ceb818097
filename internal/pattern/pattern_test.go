package pattern_test

import (
	"fmt"
	"testing"

	"snorlax/internal/ir"
	"snorlax/internal/pattern"
	"snorlax/internal/pointsto"
	"snorlax/internal/pt"
	"snorlax/internal/ranking"
	"snorlax/internal/statdiag"
	"snorlax/internal/traceproc"
	"snorlax/internal/vm"
)

// buildUseAfterFree models the pbzip2-style order violation: main
// nulls the shared queue pointer while the consumer still uses it.
// consumerDelay > mainDelay makes the run crash; smaller makes it
// succeed. The instruction layout is identical either way, so PCs —
// and therefore pattern keys — are stable across both variants.
func buildUseAfterFree(t testing.TB, consumerDelay, mainDelay int64) *ir.Module {
	t.Helper()
	src := fmt.Sprintf(`
module uaf
struct Queue {
  size: int
}
global fifo: *Queue

func consumer() {
entry:
  sleep %d
  %%q = load @fifo
  %%sz = fieldaddr %%q, size
  %%v = load %%sz
  ret
}

func main() {
entry:
  %%q = new Queue
  store %%q, @fifo
  %%t = spawn consumer()
  sleep %d
  store null:*Queue, @fifo
  join %%t
  ret
}
`, consumerDelay, mainDelay)
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runTraced executes mod under the PT driver and returns the result
// plus the snapshot taken at failure (or at the trigger PC for
// successful executions).
func runTraced(t testing.TB, mod *ir.Module, seed int64, trigger ir.PC) (*vm.Result, *pt.Snapshot) {
	t.Helper()
	d := pt.NewDriver(pt.Config{})
	d.TriggerPC = trigger
	res := vm.Run(mod, vm.Config{Seed: seed, Sink: d.Enc, Hook: d})
	if res.Failed() {
		return res, d.FailureSnapshot(res.Time)
	}
	if trigger != ir.NoPC && !d.Triggered() {
		t.Fatalf("successful run did not reach trigger PC %d", trigger)
	}
	snap := d.TriggerSnapshot()
	if snap == nil {
		snap = d.FailureSnapshot(res.Time)
	}
	return res, snap
}

// diagnose runs steps 2-6 on a failing snapshot.
func diagnose(t testing.TB, mod *ir.Module, fail *vm.Failure, snap *pt.Snapshot) ([]*pattern.Pattern, *traceproc.Trace) {
	t.Helper()
	stop := map[int]ir.PC{fail.Thread: fail.PC}
	traces, err := pt.DecodeSnapshot(mod, snap, pt.Config{}, stop, nil)
	if err != nil {
		t.Fatal(err)
	}
	scope, tr := traceproc.Process(traces)
	analysis := pointsto.NewAndersen(mod, scope)

	failInstr := mod.InstrAt(fail.PC)
	class := ranking.MemAccesses
	fi := pattern.FailureInfo{PC: fail.PC, Tid: fail.Thread, Time: fail.Time}
	if fail.Kind == vm.FailDeadlock {
		class = ranking.SyncOps
		fi.Deadlock = true
		fi.DeadlockPCs = fail.DeadlockPCs
		fi.DeadlockTids = fail.DeadlockTids
	} else {
		anchor, _ := ranking.Anchor(failInstr)
		fi.PC = anchor.PC()
	}
	cands := ranking.Rank(mod, failInstr, class, analysis, scope)
	return pattern.Compute(mod, fi, cands, tr, pattern.Config{}), tr
}

func processSnapshot(t testing.TB, mod *ir.Module, snap *pt.Snapshot) *traceproc.Trace {
	t.Helper()
	traces, err := pt.DecodeSnapshot(mod, snap, pt.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := traceproc.Process(traces)
	return tr
}

// pcOf finds the nth instruction matching pred.
func pcOf(m *ir.Module, n int, pred func(ir.Instr) bool) ir.PC {
	found := ir.NoPC
	count := 0
	m.Instrs(func(in ir.Instr) {
		if found == ir.NoPC && pred(in) {
			if count == n {
				found = in.PC()
			}
			count++
		}
	})
	return found
}

func TestOrderViolationPatternComputed(t *testing.T) {
	mod := buildUseAfterFree(t, 300_000, 100_000)
	res, snap := runTraced(t, mod, 1, ir.NoPC)
	if !res.Failed() || res.Failure.Kind != vm.FailCrash {
		t.Fatalf("expected crash, got %v", res.Failure)
	}
	pats, _ := diagnose(t, mod, res.Failure, snap)
	if len(pats) == 0 {
		t.Fatal("no patterns computed")
	}
	// The null store → consumer load WR order violation must be
	// among the patterns.
	nullStore := pcOf(mod, 0, func(in ir.Instr) bool {
		s, ok := in.(*ir.StoreInstr)
		if !ok {
			return false
		}
		c, isConst := s.Val.(*ir.Const)
		return isConst && c.Val == 0 && c.Typ.Kind() == ir.KindPtr
	})
	anchorLoad := pcOf(mod, 0, func(in ir.Instr) bool {
		l, ok := in.(*ir.LoadInstr)
		return ok && l.Block().Parent.Name == "consumer" && fmt.Sprint(l.Addr) == "@fifo"
	})
	want := fmt.Sprintf("order-violation:WR:%d,%d", nullStore, anchorLoad)
	var found *pattern.Pattern
	for _, p := range pats {
		if p.Key() == want {
			found = p
		}
	}
	if found == nil {
		keys := make([]string, len(pats))
		for i, p := range pats {
			keys[i] = p.Key()
		}
		t.Fatalf("missing pattern %s; got %v", want, keys)
	}
	// The witness events must come from different threads, ordered.
	if len(found.Events) != 2 || found.Events[0].Tid == found.Events[1].Tid {
		t.Errorf("witness = %+v", found.Events)
	}
	if found.Events[0].Time >= found.Events[1].Time {
		t.Errorf("witness not time ordered: %+v", found.Events)
	}
}

func TestStatisticalDiagnosisPicksRootCause(t *testing.T) {
	failMod := buildUseAfterFree(t, 300_000, 100_000)
	okMod := buildUseAfterFree(t, 50_000, 400_000)

	res, snap := runTraced(t, failMod, 1, ir.NoPC)
	if !res.Failed() {
		t.Fatal("expected failure")
	}
	pats, failTrace := diagnose(t, failMod, res.Failure, snap)

	obs := []statdiag.Observation{presence(failMod, pats, failTrace, true)}
	// Ten successful executions, traced at the failure PC (step 8).
	for seed := int64(0); seed < 10; seed++ {
		okRes, okSnap := runTraced(t, okMod, seed, res.Failure.PC)
		if okRes.Failed() {
			t.Fatalf("seed %d: success variant failed: %v", seed, okRes.Failure)
		}
		tr := processSnapshot(t, okMod, okSnap)
		obs = append(obs, presence(okMod, pats, tr, false))
	}

	scores := statdiag.Rank(pats, obs)
	best, unique := statdiag.Best(scores)
	if !unique {
		t.Fatalf("no unique best pattern: %v vs %v", scores[0], scores[1])
	}
	if best.F1 != 1.0 {
		t.Errorf("best F1 = %f, want 1.0", best.F1)
	}
	// The winner must be the WR order violation whose write is the
	// null store.
	if best.Pattern.Kind != pattern.KindOrderViolation || best.Pattern.Sub != "WR" {
		t.Errorf("best pattern = %s", best.Pattern.Key())
	}
	nullStore := pcOf(failMod, 0, func(in ir.Instr) bool {
		s, ok := in.(*ir.StoreInstr)
		if !ok {
			return false
		}
		c, isConst := s.Val.(*ir.Const)
		return isConst && c.Val == 0 && c.Typ.Kind() == ir.KindPtr
	})
	if best.Pattern.PCs[0] != nullStore {
		t.Errorf("best pattern write PC = %d, want null store %d", best.Pattern.PCs[0], nullStore)
	}
	// The benign init-store pattern must score below 1.
	for _, s := range scores[1:] {
		if s.F1 >= best.F1 {
			t.Errorf("runner-up %s ties the root cause", s.Pattern.Key())
		}
	}
}

func presence(mod *ir.Module, pats []*pattern.Pattern, tr *traceproc.Trace, failed bool) statdiag.Observation {
	o := statdiag.Observation{Failed: failed, Present: map[string]bool{}}
	for _, p := range pats {
		o.Present[p.Key()] = pattern.Present(mod, p, tr)
	}
	return o
}

// buildABBADeadlock returns the classic two-lock deadlock; holdDelay
// controls whether both threads grab their first lock before either
// grabs its second (deadlock) or the first thread finishes quickly
// (success).
func buildABBADeadlock(t testing.TB, holdDelay int64) *ir.Module {
	t.Helper()
	src := fmt.Sprintf(`
module abba
global A: mutex
global B: mutex

func left() {
entry:
  lock @A
  sleep %d
  lock @B
  unlock @B
  unlock @A
  ret
}

func right() {
entry:
  sleep 20000
  lock @B
  sleep %d
  lock @A
  unlock @A
  unlock @B
  ret
}

func main() {
entry:
  %%l = spawn left()
  %%r = spawn right()
  join %%l
  join %%r
  ret
}
`, holdDelay, holdDelay)
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeadlockPatternComputedAndMatched(t *testing.T) {
	failMod := buildABBADeadlock(t, 400_000)
	okMod := buildABBADeadlock(t, 1)

	res, snap := runTraced(t, failMod, 3, ir.NoPC)
	if !res.Failed() || res.Failure.Kind != vm.FailDeadlock {
		t.Fatalf("expected deadlock, got %v", res.Failure)
	}
	pats, failTrace := diagnose(t, failMod, res.Failure, snap)
	if len(pats) != 1 {
		t.Fatalf("deadlock patterns = %d, want 1", len(pats))
	}
	p := pats[0]
	if p.Kind != pattern.KindDeadlock || p.Sub != "DL2" {
		t.Fatalf("pattern = %s", p.Key())
	}
	if len(p.PCs) != 4 {
		t.Fatalf("deadlock PCs = %v", p.PCs)
	}
	// Every (held, attempt) pair must be a lock instruction.
	for _, pc := range p.PCs {
		if pc == ir.NoPC {
			t.Fatal("missing held lock in pattern")
		}
		if failMod.InstrAt(pc).Op() != ir.OpLock {
			t.Errorf("pattern PC %d is %s, want lock", pc, failMod.InstrAt(pc))
		}
	}
	// pattern.Present in the failing trace.
	if !pattern.Present(failMod, p, failTrace) {
		t.Error("deadlock pattern not matched in its own failing trace")
	}
	// Absent in successful traces.
	for seed := int64(0); seed < 5; seed++ {
		okRes, okSnap := runTraced(t, okMod, seed, res.Failure.PC)
		if okRes.Failed() {
			t.Fatalf("seed %d: success variant deadlocked", seed)
		}
		tr := processSnapshot(t, okMod, okSnap)
		if pattern.Present(okMod, p, tr) {
			t.Errorf("seed %d: deadlock pattern matched a successful run", seed)
		}
	}
}

func TestAtomicityViolationPattern(t *testing.T) {
	// Classic lost-check: worker reads a pointer, yields, reads it
	// again through an assertion after another thread nulled it.
	src := `
module atom
struct Box {
  val: int
}
global shared: *Box

func worker() {
entry:
  sleep 100000
  %p1 = load @shared
  %c1 = ne %p1, 0
  assert %c1, "first check"
  sleep 300000
  %p2 = load @shared
  %sz = fieldaddr %p2, val
  %v = load %sz
  ret
}

func main() {
entry:
  %b = new Box
  store %b, @shared
  %t = spawn worker()
  sleep 250000
  store null:*Box, @shared
  join %t
  ret
}
`
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, snap := runTraced(t, mod, 2, ir.NoPC)
	if !res.Failed() {
		t.Fatal("expected crash")
	}
	pats, _ := diagnose(t, mod, res.Failure, snap)
	var atom *pattern.Pattern
	for _, p := range pats {
		if p.Kind == pattern.KindAtomicityViolation && p.Sub == "RWR" {
			atom = p
		}
	}
	if atom == nil {
		keys := make([]string, len(pats))
		for i, p := range pats {
			keys[i] = p.Key()
		}
		t.Fatalf("no RWR atomicity pattern; got %v", keys)
	}
	if len(atom.Events) != 3 {
		t.Fatalf("witness = %+v", atom.Events)
	}
	if atom.Events[0].Tid != atom.Events[2].Tid || atom.Events[1].Tid == atom.Events[0].Tid {
		t.Errorf("thread structure wrong: %+v", atom.Events)
	}
}

func TestPatternKeyStable(t *testing.T) {
	for _, tc := range []struct {
		p    pattern.Pattern
		want string
	}{
		{pattern.Pattern{Kind: pattern.KindOrderViolation, Sub: "WR", PCs: []ir.PC{10, 20}}, "order-violation:WR:10,20"},
		{pattern.Pattern{Kind: pattern.KindDeadlock, Sub: "DL2", PCs: []ir.PC{1, 2, 3, 4}}, "deadlock:DL2:1,2,3,4"},
		{pattern.Pattern{Kind: pattern.KindDeadlock, Sub: "DL2", PCs: []ir.PC{-1, 33, -1, 33}}, "deadlock:DL2:-1,33,-1,33"},
		{pattern.Pattern{Kind: pattern.KindOrderViolation, Sub: "WR", PCs: []ir.PC{7, 3}, Absence: true}, "order-violation:WR:7,3:first"},
		{pattern.Pattern{Kind: pattern.KindAtomicityViolation, Sub: "RWR"}, "atomicity-violation:RWR:"},
		{pattern.Pattern{Kind: pattern.Kind(99), Sub: "x", PCs: []ir.PC{0}}, "pattern(?):x:0"},
	} {
		if got := tc.p.Key(); got != tc.want {
			t.Errorf("key = %q, want %q", got, tc.want)
		}
	}
}

func TestDedupe(t *testing.T) {
	ov := func(rank int, pcs ...ir.PC) *pattern.Pattern {
		return &pattern.Pattern{Kind: pattern.KindOrderViolation, Sub: "WR", PCs: pcs, Rank: rank}
	}
	first := func(rank int, pcs ...ir.PC) *pattern.Pattern {
		p := ov(rank, pcs...)
		p.Absence = true
		return p
	}
	type want struct {
		key  string
		rank int
	}
	for _, tc := range []struct {
		name string
		in   []*pattern.Pattern
		want []want
	}{
		{"empty", nil, []want{}},
		{"no duplicates keep order",
			[]*pattern.Pattern{ov(3, 5, 6), ov(1, 1, 2)},
			[]want{{"order-violation:WR:5,6", 3}, {"order-violation:WR:1,2", 1}}},
		{"later duplicate lowers the rank",
			[]*pattern.Pattern{ov(4, 1, 2), ov(7, 3, 4), ov(2, 1, 2)},
			[]want{{"order-violation:WR:1,2", 2}, {"order-violation:WR:3,4", 7}}},
		{"worse duplicate keeps the rank",
			[]*pattern.Pattern{ov(2, 1, 2), ov(9, 1, 2), ov(5, 1, 2)},
			[]want{{"order-violation:WR:1,2", 2}}},
		{"absence is a distinct key",
			[]*pattern.Pattern{first(6, 1, 2), ov(8, 1, 2), first(1, 1, 2)},
			[]want{{"order-violation:WR:1,2:first", 1}, {"order-violation:WR:1,2", 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := pattern.Dedupe(tc.in)
			got := make([]want, len(out))
			for i, p := range out {
				got[i] = want{p.Key(), p.Rank}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("Dedupe = %v, want %v", got, tc.want)
			}
			if len(out) > 0 && out[0] != tc.in[0] {
				t.Error("Dedupe did not keep the first-seen pattern itself")
			}
		})
	}
}

func TestAccessKind(t *testing.T) {
	mod := buildUseAfterFree(t, 1, 1)
	var kinds []byte
	mod.Instrs(func(in ir.Instr) {
		if k := pattern.AccessKind(in); k != 0 {
			kinds = append(kinds, k)
		}
	})
	var r, w int
	for _, k := range kinds {
		switch k {
		case 'R':
			r++
		case 'W':
			w++
		}
	}
	if r == 0 || w == 0 {
		t.Errorf("reads = %d writes = %d", r, w)
	}
}
