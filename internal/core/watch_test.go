package core

import (
	"reflect"
	"slices"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pattern"
	"snorlax/internal/pt"
	"snorlax/internal/traceproc"
	"snorlax/internal/vm"
)

// TestWatchedDecodeMatchesFullDecode pins the pattern-directed decode
// of success traces to the full decode it replaces: for every corpus
// bug, every pattern and every success trace, the watched trace is
// exactly the full merged trace filtered by the watch set, and both
// give the same Observation. Deadlock bugs exercise the lock/unlock
// part of the watch set.
func TestWatchedDecodeMatchesFullDecode(t *testing.T) {
	deadlocks := 0
	for _, b := range corpus.All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			sess := NewSession(b.Build(corpus.Variant{Failing: true}).Mod, b.Build(corpus.Variant{Failing: false}).Mod)
			srv := sess.Server
			failing, successes, _, _, err := sess.collect()
			if err != nil {
				t.Fatal(err)
			}
			if len(successes) == 0 {
				t.Fatal("no success traces gathered")
			}
			d, err := srv.Diagnose(failing, successes)
			if err != nil {
				t.Fatal(err)
			}
			pats := make([]*pattern.Pattern, len(d.Scores))
			keys := make([]string, len(d.Scores))
			for i, sc := range d.Scores {
				pats[i], keys[i] = sc.Pattern, sc.Pattern.Key()
				if sc.Pattern.Kind == pattern.KindDeadlock {
					deadlocks++
				}
			}
			watch := srv.watchSet(pats)
			for i, rep := range successes {
				full, err := pt.DecodeSnapshot(srv.Mod, rep.Snapshot, srv.PT, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, fullTr := traceproc.Process(full)
				watched, err := pt.DecodeSnapshot(srv.Mod, rep.Snapshot, srv.PT, nil, watch)
				if err != nil {
					t.Fatal(err)
				}
				watchedTr := traceproc.Merge(watched)

				var want []traceproc.DynEvent
				for _, ev := range fullTr.Events {
					if watch[ev.PC] {
						want = append(want, ev)
					}
				}
				if !slices.Equal(watchedTr.Events, want) {
					t.Errorf("success %d: watched trace (%d events) is not the filtered full trace (%d events)",
						i, len(watchedTr.Events), len(want))
				}
				got, wantObs := srv.observe(pats, keys, watchedTr, false), srv.observe(pats, keys, fullTr, false)
				if !reflect.DeepEqual(got, wantObs) {
					t.Errorf("success %d: watched observation %v, full %v", i, got.Present, wantObs.Present)
				}
			}
		})
	}
	if deadlocks == 0 {
		t.Error("no deadlock pattern exercised the lock/unlock watch rule")
	}
}

// TestWatchSetKeepsLockHistory runs the lock/unlock part of the watch
// set on a trace built to need it. main releases a before taking b,
// and later takes c between a and b, so neither deadlock pattern's
// held lock is held at its attempt. heldLockBefore sees that only if
// the watched decode keeps the unlock and the unrelated lock.
func TestWatchSetKeepsLockHistory(t *testing.T) {
	mod, err := ir.Parse(`
module lockhist
global a: mutex
global b: mutex
global c: mutex

func main() {
entry:
  lock @a
  unlock @a
  lock @b
  unlock @b
  lock @a
  lock @c
  lock @b
  unlock @b
  unlock @c
  unlock @a
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var locks []ir.PC // a, b, a, c, b
	mod.Instrs(func(in ir.Instr) {
		if in.Op() == ir.OpLock {
			locks = append(locks, in.PC())
		}
	})
	pats := []*pattern.Pattern{
		{Kind: pattern.KindDeadlock, Sub: "DL1", PCs: []ir.PC{locks[0], locks[1]}},
		{Kind: pattern.KindDeadlock, Sub: "DL1", PCs: []ir.PC{locks[2], locks[4]}},
	}
	keys := []string{pats[0].Key(), pats[1].Key()}
	enc := pt.NewEncoder(pt.Config{})
	if res := vm.Run(mod, vm.Config{Seed: 1, Sink: enc}); res.Failed() {
		t.Fatal(res.Failure)
	}
	snap := enc.Snapshot()

	srv := NewServer(mod)
	full, err := pt.DecodeSnapshot(mod, snap, pt.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fullTr := traceproc.Process(full)
	watched, err := pt.DecodeSnapshot(mod, snap, pt.Config{}, nil, srv.watchSet(pats))
	if err != nil {
		t.Fatal(err)
	}
	got, want := srv.observe(pats, keys, traceproc.Merge(watched), false), srv.observe(pats, keys, fullTr, false)
	for _, k := range keys {
		if want.Present[k] {
			t.Fatalf("%s present in the full trace; the held lock was released", k)
		}
		if got.Present[k] {
			t.Errorf("%s present in the watched trace, absent in the full trace", k)
		}
	}
}
