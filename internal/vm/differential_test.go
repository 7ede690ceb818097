package vm_test

// Differential tests: the bytecode engine must be bit-identical to
// the tree-walking interpreter. Every corpus bug is executed by both
// engines under a maximally observant configuration — trace sink,
// instruction hook, access hook, watchpoints and a stateful replay
// gate, all of which feed a running hash — and the final Results plus
// the hook-interaction hashes must match exactly. The external test
// package breaks the vm <- corpus import cycle.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

// chronicle hashes every observable hook interaction instead of
// storing it: corpus runs make millions of calls, and only equality
// between engines matters. It deliberately returns nonzero virtual
// time from Event and Before so the engines' cost-accounting paths
// are compared too, not just the happy path.
type chronicle struct {
	h   *[8]byte // scratch
	sum uint64
	n   int64
}

func newChronicle() *chronicle {
	return &chronicle{h: new([8]byte), sum: 14695981039346656037} // FNV-64a offset basis
}

func (c *chronicle) add(tag byte, vals ...int64) {
	c.n++
	c.mix(uint64(tag))
	for _, v := range vals {
		c.mix(uint64(v))
	}
}

func (c *chronicle) mix(v uint64) {
	binary.LittleEndian.PutUint64(c.h[:], v)
	for _, b := range c.h {
		c.sum ^= uint64(b)
		c.sum *= 1099511628211 // FNV-64 prime
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (c *chronicle) Event(ev vm.TraceEvent) int64 {
	c.add('e', int64(ev.Kind), int64(ev.Tid), ev.Time, int64(ev.From),
		int64(ev.To), b2i(ev.Taken), b2i(ev.Switched), int64(ev.Live))
	return int64(ev.Kind) & 1 // deterministic pure-function cost
}

func (c *chronicle) Before(tid int, in ir.Instr, live int, time int64) int64 {
	c.add('b', int64(tid), int64(in.PC()), int64(live), time)
	return int64(in.PC()) & 3
}

func (c *chronicle) OnAccess(tid int, in ir.Instr, addr int64, write bool, time int64) {
	c.add('a', int64(tid), int64(in.PC()), addr, b2i(write), time)
}

func (c *chronicle) OnLock(tid int, in ir.Instr, addr int64, acquired bool, time int64) {
	c.add('l', int64(tid), int64(in.PC()), addr, b2i(acquired), time)
}

// orderGate vetoes the first few arrivals at selected PCs, like a
// replay engine enforcing a recorded order. Vetoes are consumed in
// arrival order, so two bit-identical executions see identical veto
// decisions.
type orderGate struct {
	veto map[ir.PC]int
	ch   *chronicle
}

func (g *orderGate) Allow(tid int, in ir.Instr, time int64) bool {
	if g.veto[in.PC()] > 0 {
		g.veto[in.PC()]--
		g.ch.add('g', int64(tid), int64(in.PC()), time, 0)
		return false
	}
	g.ch.add('g', int64(tid), int64(in.PC()), time, 1)
	return true
}

// newVM constructs a VM for one leg of a comparison: vm.New runs the
// bytecode engine, vm.NewTreeWalk its tree-walking oracle.
type newVM func(*ir.Module, vm.Config) *vm.VM

// runLeg executes mod once on the given engine with full observation
// and returns the Result plus the interaction hash/count.
func runLeg(tb testing.TB, mod *ir.Module, watch []ir.PC, seed int64, engine newVM, gated bool) (*vm.Result, uint64, int64) {
	tb.Helper()
	ch := newChronicle()
	cfg := vm.Config{Seed: seed, Sink: ch, Hook: ch, Access: ch}
	if len(watch) > 0 {
		cfg.WatchPCs = map[ir.PC]bool{}
		for _, pc := range watch {
			cfg.WatchPCs[pc] = true
		}
	}
	if gated {
		veto := map[ir.PC]int{}
		for _, pc := range watch {
			veto[pc] = 2
		}
		cfg.Gate = &orderGate{veto: veto, ch: ch}
	}
	return engine(mod, cfg).Run(), ch.sum, ch.n
}

// runBare executes without any hooks attached, covering the engines'
// sink-free fast paths (branch counting without event construction).
func runBare(mod *ir.Module, watch []ir.PC, seed int64, engine newVM) *vm.Result {
	cfg := vm.Config{Seed: seed}
	if len(watch) > 0 {
		cfg.WatchPCs = map[ir.PC]bool{}
		for _, pc := range watch {
			cfg.WatchPCs[pc] = true
		}
	}
	return engine(mod, cfg).Run()
}

// diffSeeds returns the scheduler seeds to sweep; CI pins one seed
// per matrix job via SNORLAX_VM_SEED.
func diffSeeds(tb testing.TB) []int64 {
	if s := os.Getenv("SNORLAX_VM_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			tb.Fatalf("bad SNORLAX_VM_SEED %q: %v", s, err)
		}
		return []int64{n}
	}
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

func assertSameRun(t *testing.T, label string, resT, resB *vm.Result, hashT, hashB uint64, nT, nB int64) {
	t.Helper()
	if !reflect.DeepEqual(resT, resB) {
		t.Errorf("%s: results diverge\n treewalk: %+v\n bytecode: %+v", label, resT, resB)
		if resT.Failure != nil || resB.Failure != nil {
			t.Errorf("%s: failures\n treewalk: %+v\n bytecode: %+v", label, resT.Failure, resB.Failure)
		}
	}
	if nT != nB {
		t.Errorf("%s: hook call counts diverge: treewalk %d, bytecode %d", label, nT, nB)
	} else if hashT != hashB {
		t.Errorf("%s: hook streams diverge after %d identical-length calls (hash %x vs %x)",
			label, nT, hashT, hashB)
	}
}

// TestEngineDifferentialCorpus runs every corpus bug, failing and
// success variants, under both engines and requires bit-identical
// observable behavior.
func TestEngineDifferentialCorpus(t *testing.T) {
	seeds := diffSeeds(t)
	for _, bug := range append(corpus.All(), corpus.Extensions()...) {
		bug := bug
		t.Run(bug.ID, func(t *testing.T) {
			t.Parallel()
			for _, failing := range []bool{true, false} {
				inst := bug.Build(corpus.Variant{Failing: failing})
				variant := "success"
				if failing {
					variant = "failing"
				}
				for _, seed := range seeds {
					label := variant + "/seed=" + strconv.FormatInt(seed, 10)

					resT, hashT, nT := runLeg(t, inst.Mod, inst.WatchPCs, seed, vm.NewTreeWalk, true)
					resB, hashB, nB := runLeg(t, inst.Mod, inst.WatchPCs, seed, vm.New, true)
					assertSameRun(t, label+"/hooked", resT, resB, hashT, hashB, nT, nB)

					bareT := runBare(inst.Mod, inst.WatchPCs, seed, vm.NewTreeWalk)
					bareB := runBare(inst.Mod, inst.WatchPCs, seed, vm.New)
					if !reflect.DeepEqual(bareT, bareB) {
						t.Errorf("%s/bare: results diverge\n treewalk: %+v\n bytecode: %+v",
							label, bareT, bareB)
					}
				}
			}
		})
	}
}

// FuzzBytecodeDifferential feeds arbitrary textual IR to both engines
// and requires identical behavior; the seed corpus is the checked-in
// example programs.
func FuzzBytecodeDifferential(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ir"))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(1))
	}
	f.Add(`module tiny
func main() {
entry:
  %x = mul 6, 7
  print %x
  ret
}
`, int64(7))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		mod, err := ir.Parse(src)
		if err != nil {
			t.Skip()
		}
		// Cap the budget so adversarial programs terminate quickly;
		// both engines get the identical config.
		run := func(engine newVM) (*vm.Result, uint64, int64) {
			ch := newChronicle()
			cfg := vm.Config{Seed: seed, MaxSteps: 50_000,
				Sink: ch, Hook: ch, Access: ch}
			return engine(mod, cfg).Run(), ch.sum, ch.n
		}
		resT, hashT, nT := run(vm.NewTreeWalk)
		resB, hashB, nB := run(vm.New)
		if !reflect.DeepEqual(resT, resB) {
			t.Errorf("results diverge\n treewalk: %+v\n bytecode: %+v", resT, resB)
		}
		if nT != nB || hashT != hashB {
			t.Errorf("hook streams diverge: %d/%x vs %d/%x", nT, hashT, nB, hashB)
		}
	})
}
