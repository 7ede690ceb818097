package bytecode_test

import (
	"reflect"
	"testing"

	"snorlax/internal/ir"
	"snorlax/internal/vm/bytecode"
)

func mustParse(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return mod
}

const poolSrc = `module pooltest
global counter: int
func main() {
entry:
  %a = add 7, 7
  %b = mul 7, %a
  store %b, @counter
  %c = load @counter
  print %c
  ret
}
`

// TestCompilePoolInterning pins the constant pool's dedup: the value
// 7 appears three times in the source but must occupy one slot.
func TestCompilePoolInterning(t *testing.T) {
	prog := bytecode.Compile(mustParse(t, poolSrc))
	seen := map[int64]int{}
	for _, v := range prog.Pool {
		seen[v]++
		if seen[v] > 1 {
			t.Errorf("pool value %d interned %d times; pool=%v", v, seen[v], prog.Pool)
		}
	}
}

// TestCompileGlobalLayout pins the compile-time global allocator: it
// must replicate the VM's bump allocation (start at word 1,
// declaration order) exactly, since compiled code embeds the
// addresses as pool constants.
func TestCompileGlobalLayout(t *testing.T) {
	mod := mustParse(t, `module globals
global a: int
global b: [4]int
global c: int
func main() {
entry:
  store 1, @a
  store 2, @c
  ret
}
`)
	prog := bytecode.Compile(mod)
	// a at 1 (1 word), b at 2 (4 words), c at 6.
	want := []int64{1, 2, 6}
	if !reflect.DeepEqual(prog.GlobalAddrs, want) {
		t.Errorf("GlobalAddrs = %v, want %v", prog.GlobalAddrs, want)
	}
}

// TestCompileDeterministic: compiling the same module twice yields
// identical words, pools and function tables.
func TestCompileDeterministic(t *testing.T) {
	mod := mustParse(t, poolSrc)
	p1 := bytecode.Compile(mod)
	p2 := bytecode.Compile(mod)
	if !reflect.DeepEqual(p1.Code, p2.Code) || !reflect.DeepEqual(p1.Pool, p2.Pool) ||
		!reflect.DeepEqual(p1.Funcs, p2.Funcs) {
		t.Error("recompilation is not deterministic")
	}
}

// TestCompilePCMapping: every compiled instruction's embedded PC word
// round-trips through IdxOfPC, so the engine can map code offsets
// back to ir.PCs (and vice versa) without search.
func TestCompilePCMapping(t *testing.T) {
	prog := bytecode.Compile(mustParse(t, poolSrc))
	for off := int32(0); off < int32(len(prog.Code)); {
		pc := prog.Code[off+1]
		if got := prog.IdxOfPC[pc]; got != off {
			t.Errorf("IdxOfPC[%d] = %d, want %d", pc, got, off)
		}
		_, off = prog.DisasmAt(off)
	}
}

// TestCompileVersioned: the Program records the module version it was
// compiled against, which is what the vm-side cache keys on.
func TestCompileVersioned(t *testing.T) {
	mod := mustParse(t, poolSrc)
	prog := bytecode.Compile(mod)
	if prog.Version != mod.Version() {
		t.Errorf("prog.Version = %d, module version = %d", prog.Version, mod.Version())
	}
}
