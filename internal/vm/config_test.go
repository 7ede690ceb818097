package vm

import (
	"reflect"
	"testing"

	"snorlax/internal/ir"
)

// TestConfigWithDefaults pins every documented default in one table,
// so the Config doc comments, withDefaults and this test must agree.
// The tree-walking oracle reads the same resolved Config as the
// bytecode engine, which is what makes every knob engine-independent.
func TestConfigWithDefaults(t *testing.T) {
	tests := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "zero value resolves to documented defaults",
			in:   Config{},
			want: Config{
				MaxSteps:      20_000_000,
				InstrCost:     10,
				QuantumMin:    20_000,
				QuantumMax:    100_000,
				CtxSwitchCost: 1000,
				MaxThreads:    4096,
				GateBackoffNS: 500,
			},
		},
		{
			name: "quantum max clamps up to min",
			in:   Config{QuantumMin: 50_000, QuantumMax: 30_000},
			want: Config{
				MaxSteps:      20_000_000,
				InstrCost:     10,
				QuantumMin:    50_000,
				QuantumMax:    50_000,
				CtxSwitchCost: 1000,
				MaxThreads:    4096,
				GateBackoffNS: 500,
			},
		},
		{
			name: "set fields pass through",
			in: Config{Seed: 9, MaxSteps: 5, InstrCost: 2, QuantumMin: 3,
				QuantumMax: 4, CtxSwitchCost: 6, MaxThreads: 7, GateBackoffNS: 8},
			want: Config{Seed: 9, MaxSteps: 5, InstrCost: 2, QuantumMin: 3,
				QuantumMax: 4, CtxSwitchCost: 6, MaxThreads: 7, GateBackoffNS: 8},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.in.withDefaults()
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("withDefaults() = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func parseMod(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return mod
}

const cacheSrc = `module cachetest
func main() {
entry:
  %x = add 1, 2
  print %x
  ret
}
`

// TestCompiledProgramCache: the compiled program is cached on the
// module keyed by its Finalize version — two VMs over the same module
// share one program, and re-finalizing invalidates the cache.
func TestCompiledProgramCache(t *testing.T) {
	mod := parseMod(t, cacheSrc)
	p1 := compiledProgram(mod)
	if p2 := compiledProgram(mod); p1 != p2 {
		t.Error("second compiledProgram call missed the cache")
	}
	mod.Finalize() // version bump
	if p3 := compiledProgram(mod); p3 == p1 {
		t.Error("cache survived a re-finalize; stale code could run")
	}
}
