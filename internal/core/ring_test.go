package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// historySizes are the trace ring capacities TestSmallRingsWrapAndDecode
// probes, largest first. Config.withDefaults keeps the PSB period at a
// quarter of each, so every wrapped ring still holds a sync point.
var historySizes = []int{512, 384, 320, 256, 192, 128, 96, 64}

// TestSmallRingsWrapAndDecode drives every corpus bug through the
// Figure-2 loop (Session.collect, then Diagnose: the two halves of
// Session.Run) with trace rings small enough to wrap, so diagnoses go
// through the decoder's resync-at-first-PSB path. Every decode must
// succeed at every size: no session error, no dropped success trace.
// At 512 B nothing wraps (no corpus thread fills it); at 256 B and
// below some snapshot must wrap. Which bugs keep their
// root cause at which size is §7's limited-history argument,
// measured; the smallest correct size per bug is pinned in
// testdata/ring-history.golden (rewrite with -update). A best pattern
// with an unknown PC (a deadlock whose first lock acquisitions wrapped
// out of the ring, from 320 B down) must never be reported as unique.
func TestSmallRingsWrapAndDecode(t *testing.T) {
	bugs := corpus.All()
	correct := make(map[string][]bool, len(bugs))
	for _, size := range historySizes {
		wrapped, unknownBest := 0, 0
		for _, b := range bugs {
			failInst := b.Build(corpus.Variant{Failing: true})
			sess := NewSession(failInst.Mod, b.Build(corpus.Variant{Failing: false}).Mod)
			sess.Server.PT.BufBytes = size
			failing, successes, _, _, err := sess.collect()
			if err != nil {
				t.Fatalf("%s at %d B: %v", b.ID, size, err)
			}
			d, err := sess.Server.Diagnose(failing, successes)
			if err != nil {
				t.Fatalf("%s at %d B: %v", b.ID, size, err)
			}
			if d.Stats.DroppedSuccesses != 0 {
				t.Errorf("%s at %d B: %d success traces undecodable", b.ID, size, d.Stats.DroppedSuccesses)
			}
			for _, rep := range append(successes, failing) {
				for _, th := range rep.Snapshot.Threads {
					if th.Wrapped {
						wrapped++
					}
				}
			}
			if d.Best.Pattern != nil && slices.Contains(d.Best.Pattern.PCs, ir.NoPC) {
				unknownBest++
				if d.Unique {
					t.Errorf("%s at %d B: best pattern %s has an unknown PC but is reported unique", b.ID, size, d.Best.Pattern.Key())
				}
			}
			truth := Truth{Kind: failInst.TruthKind, Sub: failInst.TruthSub,
				PCs: failInst.TruthPCs, Absence: failInst.TruthAbsence}
			correct[b.ID] = append(correct[b.ID], MatchesTruth(d.Best.Pattern, truth))
		}
		switch {
		case size >= 512 && wrapped > 0:
			t.Errorf("%d thread snapshots wrapped at %d B; no corpus fill comes near it", wrapped, size)
		case size <= 256 && wrapped == 0:
			t.Errorf("no thread snapshot wrapped at %d B: the resync path went untested", size)
		}
		if size <= 320 && unknownBest == 0 {
			t.Errorf("no best pattern had an unknown PC at %d B: the not-unique rule went untested", size)
		}
		t.Logf("%d B: %d wrapped thread snapshots", size, wrapped)
	}

	var sb strings.Builder
	sb.WriteString("# Smallest trace ring (bytes per thread) from which each corpus bug keeps\n")
	sb.WriteString("# its root cause at every larger probed size; \"-\" marks a wrong diagnosis.\n")
	fmt.Fprintf(&sb, "%-16s", "bug")
	for _, size := range historySizes {
		fmt.Fprintf(&sb, " %5d", size)
	}
	sb.WriteString("  smallest\n")
	for _, b := range bugs {
		fmt.Fprintf(&sb, "%-16s", b.ID)
		smallest, ok := "none", true
		for i, size := range historySizes {
			mark := "-"
			if correct[b.ID][i] {
				mark = "ok"
				if ok {
					smallest = fmt.Sprint(size)
				}
			} else {
				ok = false
			}
			fmt.Fprintf(&sb, " %5s", mark)
		}
		fmt.Fprintf(&sb, "  %s\n", smallest)
	}
	checkGolden(t, "ring-history.golden", sb.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%v (run go test ./internal/core/ -run %s -update)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("%s drifted (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
