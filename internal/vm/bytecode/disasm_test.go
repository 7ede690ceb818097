package bytecode_test

// Golden-file tests pin the bytecode layout of three representative
// corpus bugs: the full disassembly (opcodes, offsets, pool values,
// embedded PCs) must match the checked-in listing byte for byte, so
// any compiler change that moves a word shows up in review. Refresh
// with:
//
//	go test ./internal/vm/bytecode -run TestDisasmGolden -update
//
// The test package is external so it can import the corpus (which
// imports vm, which imports this package).

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/vm/bytecode"
)

var update = flag.Bool("update", false, "rewrite golden disassembly files")

// One deadlock, one use-after-free order violation, one lost-wakeup
// extension bug — together they cover every opcode family.
var goldenBugs = []string{"mysql-1", "mysql-3", "log4j-notify1"}

func lookupBug(id string) *corpus.Bug {
	if b := corpus.ByID(id); b != nil {
		return b
	}
	return corpus.ExtensionByID(id)
}

func TestDisasmGolden(t *testing.T) {
	for _, id := range goldenBugs {
		t.Run(id, func(t *testing.T) {
			bug := lookupBug(id)
			if bug == nil {
				t.Fatalf("corpus bug %q not found", id)
			}
			got := bytecode.Compile(bug.Build(corpus.Variant{}).Mod).Disasm()
			path := filepath.Join("testdata", id+".disasm")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly differs from %s (run with -update after reviewing)\n--- got ---\n%s", path, got)
			}
		})
	}
}

// TestDisasmCoversAllCode walks every corpus program instruction by
// instruction via DisasmAt and requires the widths to tile the code
// array exactly — no gaps, no overruns, no unknown opcodes.
func TestDisasmCoversAllCode(t *testing.T) {
	for _, bug := range append(corpus.All(), corpus.Extensions()...) {
		prog := bytecode.Compile(bug.Build(corpus.Variant{}).Mod)
		seen := 0
		for off := int32(0); off < int32(len(prog.Code)); {
			line, next := prog.DisasmAt(off)
			if next <= off {
				t.Fatalf("%s: DisasmAt(%d) did not advance: %q", bug.ID, off, line)
			}
			off = next
			seen++
		}
		if seen == 0 {
			t.Errorf("%s: empty program", bug.ID)
		}
	}
}
