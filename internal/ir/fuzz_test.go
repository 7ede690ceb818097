package ir

import (
	"strings"
	"testing"
)

// parseSeeds are FuzzParse's checked-in corpus, each with whether
// Parse must accept it. A seed that stops parsing would otherwise pass
// the fuzz body's early return and check nothing.
var parseSeeds = []struct {
	src string
	ok  bool
}{
	{sampleSrc, true},
	{cfgSrc, true},
	{`
module cv
global mu: mutex
global c: cond
func main() {
entry:
  lock @mu
  wait @mu, @c
  notify @c
  unlock @mu
  ret
}
`, true},
	{"module m\nfunc main() {\nentry:\n  ret\n}\n", true},
	{"not a module at all", false},
	{"module x\nstruct S {\n a: [3]*int\n}\nglobal g: *S\nfunc main() {\nentry:\n  %p = load @g\n  ret\n}\n", true},
	{"module y\nfunc main() {\nentry:\n  %x = add 1, 9223372036854775807\n  print %x\n  ret\n}\n", true},
	{"module z\nglobal g: *[2]int\nglobal h: *func(int) bool = -3\nfunc f(a: *[2]int, b: int) bool {\nentry:\n  %c = eq %b, -1\n  ret %c\n}\nfunc main() {\nentry:\n  store null:*[2]int, @g\n  %r = call f(null:*[2]int, 4)\n  assert %r, \"tab\\there \\\"q\\\" \\u00e9\"\n  print\n  ret\n}\n", true},

	// Typed nulls in every operand position that prints them.
	{"module n\nstruct S {\n  f: int\n}\nfunc main() {\nentry:\n  %p = cast null:*S to *int\n  ret\n}\n", true},
	{"module n\nstruct S {\n  f: int\n}\nfunc main() {\nentry:\n  %p = fieldaddr null:*S, f\n  ret\n}\n", true},
	{"module n\nfunc main() {\nentry:\n  %p = indexaddr null:*[2]int, 0\n  ret\n}\n", true},
	// Comment markers inside assert messages.
	{"module c\nfunc main() {\nentry:\n  assert true, \"\\x23 issue\"\n  ret\n}\n", true},
	{"module c\nfunc main() {\nentry:\n  assert true, \"a // b\" // c\n  ret\n}\n", true},
	{"module c\nfunc main() {\nentry:\n  assert true, \"\\\"# d\\\"\" # \"e\n  ret\n}\n", true},
}

// FuzzParse checks the parser's total robustness: any input either
// fails with a ParseError-shaped error or produces a verified module
// whose printed form is a parse/print fixpoint. The printed form must
// also match the reference printer byte for byte.
func FuzzParse(f *testing.F) {
	mustParse := make(map[string]bool, len(parseSeeds))
	for _, seed := range parseSeeds {
		f.Add(seed.src)
		mustParse[seed.src] = seed.ok
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			if mustParse[src] {
				t.Fatalf("seed no longer parses: %v", err)
			}
			return // rejecting a fuzzed input is fine; panics are not
		}
		checkRoundTrip(t, m)
	})
}

// TestParseSeeds requires every FuzzParse seed to meet its expected
// outcome: the accepted ones parse and round-trip, the rest are
// rejected.
func TestParseSeeds(t *testing.T) {
	for i, seed := range parseSeeds {
		m, err := Parse(seed.src)
		if (err == nil) != seed.ok {
			t.Errorf("seed %d: Parse err = %v, want accepted=%v", i, err, seed.ok)
			continue
		}
		if err == nil {
			checkRoundTrip(t, m)
		}
	}
}

// checkRoundTrip requires m's printed form to match the reference
// printer and to be a parse/print fixpoint.
func checkRoundTrip(t *testing.T, m *Module) {
	t.Helper()
	text := Print(m)
	if ref := referencePrint(m); text != ref {
		t.Fatalf("Print differs from the reference printer:\n%s\nreference:\n%s", text, ref)
	}
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("printed module does not reparse: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Fatal("print/parse not a fixpoint")
	}
	if m2.NumInstrs() != m.NumInstrs() {
		t.Fatalf("instruction count changed: %d -> %d", m.NumInstrs(), m2.NumInstrs())
	}
}

func TestCondRoundTrip(t *testing.T) {
	src := `
module cvrt
global mu: mutex
global c: cond
global n: int

func waiter() {
entry:
  lock @mu
  wait @mu, @c
  unlock @mu
  ret
}

func main() {
entry:
  %t = spawn waiter()
  sleep 100000
  lock @mu
  store 1, @n
  notify @c
  unlock @mu
  join %t
  ret
}
`
	m := mustParse(t, src)
	var waits, notifies int
	m.Instrs(func(in Instr) {
		switch in.Op() {
		case OpWait:
			waits++
			w := in.(*WaitInstr)
			if Deref(w.Mu.Type()).Kind() != KindMutex || Deref(w.Cv.Type()).Kind() != KindCond {
				t.Error("wait operand types wrong")
			}
			if AccessedPointer(in) != w.Cv {
				t.Error("wait accessed pointer must be the cond")
			}
			if !IsSyncOp(in) {
				t.Error("wait not a sync op")
			}
		case OpNotify:
			notifies++
		}
	})
	if waits != 1 || notifies != 1 {
		t.Fatalf("waits=%d notifies=%d", waits, notifies)
	}
	text := Print(m)
	if !strings.Contains(text, "wait @mu, @c") || !strings.Contains(text, "notify @c") {
		t.Errorf("printed form: %s", text)
	}
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if Print(m2) != text {
		t.Error("round trip not a fixpoint")
	}
}

func TestVerifyWaitTypeErrors(t *testing.T) {
	cases := []string{
		// cond where mutex expected
		"module m\nglobal c: cond\nglobal d: cond\nfunc main() {\nentry:\n  wait @c, @d\n  ret\n}\n",
		// mutex where cond expected
		"module m\nglobal mu: mutex\nglobal mv: mutex\nfunc main() {\nentry:\n  wait @mu, @mv\n  ret\n}\n",
		// notify on int
		"module m\nglobal n: int\nfunc main() {\nentry:\n  notify @n\n  ret\n}\n",
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: type-confused wait/notify accepted", i)
		}
	}
}
