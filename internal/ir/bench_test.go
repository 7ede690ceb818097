package ir_test

import (
	"testing"

	"snorlax/internal/ir"
)

// printed keeps BenchmarkPrint's result live.
var printed string

// BenchmarkPrint prints the failing build of every corpus bug once per
// op, with the one-pass printer and with the fmt-based reference it
// replaced. SetBytes is the text of all 58 modules, so MB/s is the
// printing rate.
func BenchmarkPrint(b *testing.B) {
	mods := corpusModules(false)
	var size int64
	for _, m := range mods {
		size += int64(len(ir.Print(m)))
	}
	for _, bc := range []struct {
		name  string
		print func(*ir.Module) string
	}{{"reference", ir.ReferencePrint}, {"onepass", ir.Print}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range mods {
					printed = bc.print(m)
				}
			}
		})
	}
}

// BenchmarkParse parses the printed failing build of every corpus bug
// once per op: what a cold tenant's first load and a client upload pay.
func BenchmarkParse(b *testing.B) {
	var texts []string
	var size int64
	for _, m := range corpusModules(false) {
		text := ir.Print(m)
		texts = append(texts, text)
		size += int64(len(text))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := ir.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}
