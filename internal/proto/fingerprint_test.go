package proto

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"snorlax/internal/corpus"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite testdata/module_fingerprints.golden")

// TestModuleFingerprintGolden pins the tenant id of the failing and
// the succeeding build of every corpus bug. A restored tenant re-checks
// ModuleFingerprint(Parse(text)) against its id when it loads, so a
// printer that moved by one byte would strand every tenant of every
// existing state directory.
func TestModuleFingerprintGolden(t *testing.T) {
	const path = "testdata/module_fingerprints.golden"
	var sb strings.Builder
	for _, bug := range append(corpus.All(), corpus.Extensions()...) {
		for _, failing := range []bool{true, false} {
			variant := "succeeding"
			if failing {
				variant = "failing"
			}
			mod := bug.Build(corpus.Variant{Failing: failing}).Mod
			fmt.Fprintf(&sb, "%s %s %s\n", bug.ID, variant, ModuleFingerprint(mod))
		}
	}
	if *updateFingerprints {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(string(want)))
	for line := 1; ; line++ {
		g, w := gl.Scan(), wl.Scan()
		if !g && !w {
			break
		}
		if gl.Text() != wl.Text() {
			t.Fatalf("%s:%d: got %q, want %q", path, line, gl.Text(), wl.Text())
		}
	}
}
