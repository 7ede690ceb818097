package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
)

// corpusModules builds every corpus bug (the 54 of the registry and the
// extensions) in its failing variant and, with both, in its succeeding
// variant too.
func corpusModules(both bool) []*ir.Module {
	var mods []*ir.Module
	for _, bug := range append(corpus.All(), corpus.Extensions()...) {
		mods = append(mods, bug.Build(corpus.Variant{Failing: true}).Mod)
		if both {
			mods = append(mods, bug.Build(corpus.Variant{Failing: false}).Mod)
		}
	}
	return mods
}

// TestPrintMatchesReferenceCorpus pins Print to the printer it replaced
// on every corpus module, both variants.
func TestPrintMatchesReferenceCorpus(t *testing.T) {
	mods := corpusModules(true)
	if len(mods) != 116 {
		t.Fatalf("%d corpus modules, want 116", len(mods))
	}
	for _, m := range mods {
		got, want := ir.Print(m), ir.ReferencePrint(m)
		if got != want {
			t.Fatalf("%s: Print differs from the reference printer\n got: %.200q\nwant: %.200q", m.Name, got, want)
		}
	}
}

// instrStringGolden is the SHA-256 of every corpus instruction's
// String, one per line, in corpusModules(true) order. Instr.String
// feeds diagnosis reports and error messages; a change to it shows
// here.
const instrStringGolden = "8e8c792b2e107a44c3e4822919525f1a6b0c51bc45269ec0632240b1b4d0047f"

func TestInstrStringGolden(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, m := range corpusModules(true) {
		m.Instrs(func(in ir.Instr) {
			h.Write([]byte(in.String()))
			h.Write([]byte{'\n'})
			n++
		})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != instrStringGolden {
		t.Errorf("Instr.String over %d corpus instructions hashes to %s, want %s", n, got, instrStringGolden)
	}
}
