package vm_test

// BenchmarkVMExecute compares the two execution engines on identical
// workloads: a compute-bound loop (the engine's dispatch overhead
// dominates) and a real corpus bug (scheduling, locks and spawns in
// the mix). scripts/bench.sh records these under -count to feed the
// benchstat-gated CI lane; BENCH_vm.json archives the headline
// numbers.

import (
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

const benchLoopSrc = `module bench
global acc: int
func work(n: int) int {
entry:
  %i = alloca int
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = lt %iv, %n
  condbr %c, body, done
body:
  %v = load @acc
  %x = mul %iv, 3
  %y = add %x, %v
  %r = rem %y, 1000003
  store %r, @acc
  %iv2 = add %iv, 1
  store %iv2, %i
  br loop
done:
  %out = load @acc
  ret %out
}
func main() {
entry:
  %a = call work(4000)
  %b = call work(4000)
  %s = add %a, %b
  print %s
  ret
}
`

func benchEngines(b *testing.B, mod *ir.Module) {
	for _, eng := range []struct {
		name  string
		newVM newVM
	}{{"treewalk", vm.NewTreeWalk}, {"bytecode", vm.New}} {
		b.Run(eng.name, func(b *testing.B) {
			cfg := vm.Config{Seed: 1}
			// Prime: compile cache warm, and capture the per-run step
			// count for the instrs-per-second metric.
			probe := eng.newVM(mod, cfg).Run()
			if probe.Failure != nil && probe.Failure.Kind == vm.FailStep {
				b.Fatalf("workload hit the step limit: %v", probe.Failure)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.newVM(mod, cfg).Run()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(probe.Steps)*float64(b.N)/secs/1e6, "Minstr/s")
			}
		})
	}
}

func BenchmarkVMExecute(b *testing.B) {
	loop, err := ir.Parse(benchLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("loop", func(b *testing.B) { benchEngines(b, loop) })

	bug := corpus.ByID("mysql-1")
	if bug == nil {
		b.Fatal("corpus bug mysql-1 not found")
	}
	inst := bug.Build(corpus.Variant{Failing: true})
	b.Run("mysql-1", func(b *testing.B) { benchEngines(b, inst.Mod) })
}
