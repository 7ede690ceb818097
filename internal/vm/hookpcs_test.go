package vm_test

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

// hookCall is one Before call, as the hook saw it.
type hookCall struct {
	tid  int
	pc   ir.PC
	live int
	time int64
}

// allHook records every instruction it sees at the PCs in keep. It
// has no HookPCs, so the VM calls it before every instruction.
type allHook struct {
	keep  map[ir.PC]bool
	calls []hookCall
}

func (h *allHook) Before(tid int, in ir.Instr, live int, time int64) int64 {
	if h.keep[in.PC()] {
		h.calls = append(h.calls, hookCall{tid, in.PC(), live, time})
	}
	return 0
}

// pcHook records every call it gets; the VM calls it only at pcs.
type pcHook struct {
	pcs   []ir.PC
	calls []hookCall
}

func (h *pcHook) HookPCs() []ir.PC { return h.pcs }

func (h *pcHook) Before(tid int, in ir.Instr, live int, time int64) int64 {
	h.calls = append(h.calls, hookCall{tid, in.PC(), live, time})
	return 0
}

// hookedPCs picks the PCs a filtered hook lists for inst: the
// instance's watched (pattern) PCs plus every seventh instruction,
// with a duplicate and two PCs outside the module that must be
// ignored.
func hookedPCs(inst *corpus.Instance) []ir.PC {
	pcs := append([]ir.PC(nil), inst.WatchPCs...)
	for pc := 0; pc < inst.Mod.NumInstrs(); pc += 7 {
		pcs = append(pcs, ir.PC(pc))
	}
	return append(pcs, pcs[0], ir.NoPC, ir.PC(inst.Mod.NumInstrs()))
}

// TestHookPCsSeeWhatAnEveryInstructionHookSees runs every corpus bug
// on both engines twice: once with a hook that sees every instruction
// and keeps the calls at a PC set, once with a PCHook listing that
// set. The PCHook must get exactly the kept calls, in order, with the
// same thread, live count and time, and the two runs must have the
// same Result.
func TestHookPCsSeeWhatAnEveryInstructionHookSees(t *testing.T) {
	for _, bug := range append(corpus.All(), corpus.Extensions()...) {
		for _, failing := range []bool{true, false} {
			inst := bug.Build(corpus.Variant{Failing: failing})
			pcs := hookedPCs(inst)
			keep := map[ir.PC]bool{}
			for _, pc := range pcs {
				keep[pc] = true
			}
			for _, eng := range []struct {
				name  string
				newVM newVM
			}{{"treewalk", vm.NewTreeWalk}, {"bytecode", vm.New}} {
				label := bug.ID + "/failing=" + strconv.FormatBool(failing) + "/" + eng.name
				all := &allHook{keep: keep}
				resAll := eng.newVM(inst.Mod, vm.Config{Seed: 1, Hook: all}).Run()
				filtered := &pcHook{pcs: pcs}
				resFiltered := eng.newVM(inst.Mod, vm.Config{Seed: 1, Hook: filtered}).Run()
				if len(all.calls) == 0 {
					t.Fatalf("%s: no instruction at the hooked PCs executed", label)
				}
				if !reflect.DeepEqual(all.calls, filtered.calls) {
					t.Errorf("%s: PCHook got %d calls, the every-instruction hook %d at its PCs",
						label, len(filtered.calls), len(all.calls))
				}
				if !reflect.DeepEqual(resAll, resFiltered) {
					t.Errorf("%s: results diverge\n every instruction: %+v\n filtered: %+v",
						label, resAll, resFiltered)
				}
			}
		}
	}
}

// TestEmptyHookPCsNeverCalled: a PCHook listing no PCs is never
// called, and the run equals an unhooked one.
func TestEmptyHookPCsNeverCalled(t *testing.T) {
	inst := corpus.ByID("mysql-1").Build(corpus.Variant{Failing: true})
	for _, newVM := range []newVM{vm.NewTreeWalk, vm.New} {
		h := &pcHook{}
		res := newVM(inst.Mod, vm.Config{Seed: 1, Hook: h}).Run()
		if len(h.calls) != 0 {
			t.Errorf("hook with no PCs called %d times", len(h.calls))
		}
		if bare := newVM(inst.Mod, vm.Config{Seed: 1}).Run(); !reflect.DeepEqual(res, bare) {
			t.Errorf("results diverge\n hooked: %+v\n bare: %+v", res, bare)
		}
	}
}

// TestConcurrentRunsMatchSerial runs the corpus from several
// goroutines at once, with watched PCs and a PCHook, so that runs
// share the generator and flag-table pools, and requires each Result
// to equal the serial run's. A finished VM holds nothing pooled.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		mod   *ir.Module
		watch map[ir.PC]bool
		pcs   []ir.PC
		seed  int64
	}
	var jobs []job
	for _, bug := range corpus.All() {
		inst := bug.Build(corpus.Variant{Failing: true})
		watch := map[ir.PC]bool{}
		for _, pc := range inst.WatchPCs {
			watch[pc] = true
		}
		for seed := int64(1); seed <= 2; seed++ {
			jobs = append(jobs, job{inst.Mod, watch, hookedPCs(inst), seed})
		}
	}
	run := func(j job) (*vm.Result, []hookCall) {
		h := &pcHook{pcs: j.pcs}
		v := vm.New(j.mod, vm.Config{Seed: j.seed, WatchPCs: j.watch, Hook: h})
		res := v.Run()
		if v.HoldsPooled() {
			t.Errorf("a finished VM still holds pooled run state")
		}
		return res, h.calls
	}
	want := make([]*vm.Result, len(jobs))
	wantCalls := make([][]hookCall, len(jobs))
	for i, j := range jobs {
		want[i], wantCalls[i] = run(j)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the jobs from a different offset, odd
			// workers backwards, so different programs run side by
			// side and each run follows a different one than serially.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				if w%2 == 1 {
					i = len(jobs) - 1 - i
				}
				got, calls := run(jobs[i])
				if !reflect.DeepEqual(got, want[i]) || !reflect.DeepEqual(calls, wantCalls[i]) {
					t.Errorf("worker %d job %d: concurrent run differs from serial", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
