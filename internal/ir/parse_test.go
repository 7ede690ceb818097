package ir

import (
	"strings"
	"testing"
)

const sampleSrc = `
module sample

// A queue shared between producer and consumer.
struct Queue {
  head: int
  tail: int
  buf: *int
}

global fifo: *Queue
global mu: mutex
global hits: int = 7

func main() {
entry:
  %q = new Queue
  store %q, @fifo
  %t = spawn consumer(3)
  call producer(%q)
  join %t
  ret
}

func producer(arg: *Queue) {
entry:
  lock @mu
  %h = fieldaddr %arg, head
  %v = load %h
  %v2 = add %v, 1
  store %v2, %h
  unlock @mu
  sleep 1000
  ret
}

func consumer(n: int) int {
entry:
  %i = alloca int
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = lt %iv, %n
  condbr %c, body, done
body:
  %p = load @fifo
  %isnull = eq %p, 0
  assert %isnull, "unexpected queue"
  %iv2 = add %iv, 1
  store %iv2, %i
  br loop
done:
  %r = load %i
  ret %r
}
`

func mustParse(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func TestParseSample(t *testing.T) {
	m := mustParse(t, sampleSrc)
	if m.Name != "sample" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.Funcs) != 3 || len(m.Globals) != 3 || len(m.Structs) != 1 {
		t.Fatalf("funcs=%d globals=%d structs=%d", len(m.Funcs), len(m.Globals), len(m.Structs))
	}
	q := m.StructByName("Queue")
	if q == nil || len(q.Fields) != 3 {
		t.Fatalf("Queue struct wrong: %+v", q)
	}
	hits := m.GlobalByName("hits")
	if hits == nil || hits.Init == nil || hits.Init.Val != 7 {
		t.Fatalf("hits init wrong: %+v", hits)
	}
	cons := m.FuncByName("consumer")
	if cons.Sig.Ret != Int || len(cons.Params) != 1 || cons.Params[0].Typ != Int {
		t.Fatalf("consumer signature wrong: %v", cons.Sig)
	}
	if len(cons.Blocks) != 4 {
		t.Fatalf("consumer blocks = %d", len(cons.Blocks))
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	m1 := mustParse(t, sampleSrc)
	text1 := Print(m1)
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, text1)
	}
	text2 := Print(m2)
	if text1 != text2 {
		t.Errorf("print/parse not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	if m1.NumInstrs() != m2.NumInstrs() {
		t.Errorf("instr count changed: %d -> %d", m1.NumInstrs(), m2.NumInstrs())
	}
}

func TestBuilderPrintParseRoundTrip(t *testing.T) {
	m1 := buildCounterModule(t)
	text := Print(m1)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse of printed builder module: %v\n%s", err, text)
	}
	if m1.NumInstrs() != m2.NumInstrs() {
		t.Errorf("instr count %d -> %d", m1.NumInstrs(), m2.NumInstrs())
	}
	if Print(m2) != text {
		t.Error("round trip not a fixpoint")
	}
}

func TestParseTypedNull(t *testing.T) {
	src := `
module nulls
struct S {
  x: int
}
global g: *S
func main() {
entry:
  store null:*S, @g
  %p = load @g
  %isnull = eq %p, 0
  ret
}
`
	m := mustParse(t, src)
	var store *StoreInstr
	m.Instrs(func(in Instr) {
		if s, ok := in.(*StoreInstr); ok {
			store = s
		}
	})
	c, ok := store.Val.(*Const)
	if !ok || c.Val != 0 {
		t.Fatalf("store value = %v", store.Val)
	}
	if c.Typ.String() != "*S" {
		t.Fatalf("null type = %s", c.Typ)
	}
}

func TestParseForwardStructReference(t *testing.T) {
	src := `
module fwd
global g: *Late
struct Late {
  x: int
}
func main() {
entry:
  %p = load @g
  %xa = fieldaddr %p, x
  store 1, %xa
  ret
}
`
	m := mustParse(t, src)
	late := m.StructByName("Late")
	if late == nil || len(late.Fields) != 1 {
		t.Fatalf("forward struct not resolved: %+v", late)
	}
	// The global's type must be the same struct object.
	g := m.GlobalByName("g")
	if Deref(g.Typ) != Type(late) {
		t.Fatal("global type not identical to struct definition")
	}
}

func TestParseIndirectCall(t *testing.T) {
	src := `
module indirect
global fp: func(int) int
func double(x: int) int {
entry:
  %r = mul %x, 2
  ret %r
}
func main() {
entry:
  store double, @fp
  %f = load @fp
  %r = call %f(21)
  ret
}
`
	m := mustParse(t, src)
	var calls []*CallInstr
	m.Instrs(func(in Instr) {
		if c, ok := in.(*CallInstr); ok {
			calls = append(calls, c)
		}
	})
	if len(calls) != 1 {
		t.Fatalf("calls = %d", len(calls))
	}
	if calls[0].StaticCallee() != nil {
		t.Error("indirect call should have no static callee")
	}
}

func TestParseArrays(t *testing.T) {
	src := `
module arr
global table: [4]int
func main() {
entry:
  %e = indexaddr @table, 2
  store 9, %e
  %v = load %e
  ret
}
`
	m := mustParse(t, src)
	g := m.GlobalByName("table")
	at, ok := g.Typ.(*ArrayType)
	if !ok || at.Len != 4 || at.Elem != Int {
		t.Fatalf("table type = %v", g.Typ)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no module", "func main() {\nentry:\n  ret\n}\n", "module"},
		{"undefined register", "module m\nfunc main() {\nentry:\n  %x = add %y, 1\n  ret\n}\n", "undefined register"},
		{"unknown global", "module m\nfunc main() {\nentry:\n  %x = load @nope\n  ret\n}\n", "unknown global"},
		{"unknown block", "module m\nfunc main() {\nentry:\n  br nowhere\n}\n", "unknown block"},
		{"unknown instruction", "module m\nfunc main() {\nentry:\n  frobnicate %x\n}\n", "unknown instruction"},
		{"unknown field", "module m\nstruct S {\n x: int\n}\nfunc main() {\nentry:\n  %p = new S\n  %f = fieldaddr %p, y\n  ret\n}\n", "no field"},
		{"unterminated func", "module m\nfunc main() {\nentry:\n  ret\n", "unterminated"},
		{"duplicate func", "module m\nfunc f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  ret\n}\n", "duplicate function"},
		{"register type clash", "module m\nfunc main() {\nentry:\n  %x = add 1, 2\n  %x = eq 1, 2\n  ret\n}\n", "redefined"},
		{"missing main", "module m\nfunc f() {\nentry:\n  ret\n}\n", "no main"},
		{"store arity", "module m\nfunc main() {\nentry:\n  store 1\n  ret\n}\n", "store wants 2"},
		{"undefined struct use", "module m\nglobal g: *Ghost\nfunc main() {\nentry:\n  ret\n}\n", "no fields"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	src := "module m\nfunc main() {\nentry:\n  %x = add %nope, 1\n  ret\n}\n"
	_, err := Parse(src)
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	if pe.Line != 4 {
		t.Errorf("error line = %d, want 4", pe.Line)
	}
}

func asParseError(err error, out **ParseError) bool {
	for err != nil {
		if pe, ok := err.(*ParseError); ok {
			*out = pe
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestParseComments(t *testing.T) {
	src := `
module m
# hash comment
// slash comment
func main() { // trailing
entry:
  ret // done
}
`
	m := mustParse(t, src)
	if m.FuncByName("main").NumInstrs() != 1 {
		t.Fatal("comments not stripped")
	}
}

// TestParseCommentMarkersInAssertMessage: "#" and "//" start a
// comment only outside an assert's quoted message.
func TestParseCommentMarkersInAssertMessage(t *testing.T) {
	src := `
module m
func main() {
entry:
  assert true, "\x23 issue" # comment
  assert true, "a // b \"c # d\"" // comment "e"
  assert true, "f" # "g"
  ret
}
`
	var msgs []string
	mustParse(t, src).Instrs(func(in Instr) {
		if a, ok := in.(*AssertInstr); ok {
			msgs = append(msgs, a.Msg)
		}
	})
	want := []string{"# issue", `a // b "c # d"`, "f"}
	if strings.Join(msgs, "|") != strings.Join(want, "|") {
		t.Fatalf("messages = %q, want %q", msgs, want)
	}
}
