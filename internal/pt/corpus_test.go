package pt

// Checked-in seed corpus for the fuzz targets. The files under
// testdata/fuzz/<Target>/ run on every plain `go test` (the fuzzing
// engine replays seed corpora even without -fuzz), so the decoder's
// historical crashers and the genuine encoder streams are pinned as
// regressions. TestFuzzCorpusReplay additionally pushes every entry
// through the full encoder→ring→decoder path.
//
// Regenerate after an intentional encoder format change with:
//
//	go test ./internal/pt/ -run TestSeedCorpus -regen-corpus

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"snorlax/internal/ir"
)

var regenCorpus = flag.Bool("regen-corpus", false,
	"rewrite the checked-in fuzz seed corpus under testdata/fuzz")

const corpusHeader = "go test fuzz v1"

// decodeCorpusEntry is one FuzzDecode seed: a candidate thread stream
// plus the ring-wrapped flag.
type decodeCorpusEntry struct {
	name    string
	data    []byte
	wrapped bool
}

// decodeCorpusEntries builds the canonical seed set: every genuine
// thread stream from the deterministic seed program, plus the
// handcrafted edge inputs FuzzDecode started from.
func decodeCorpusEntries(tb testing.TB) []decodeCorpusEntry {
	_, snap := seedSnapshot(tb)
	var entries []decodeCorpusEntry
	for _, tid := range snap.Tids() {
		th := snap.Threads[tid]
		entries = append(entries, decodeCorpusEntry{
			name: fmt.Sprintf("seed-thread-%d", tid), data: th.Data, wrapped: th.Wrapped})
	}
	entries = append(entries,
		decodeCorpusEntry{name: "seed-empty"},
		decodeCorpusEntry{name: "seed-truncated-psb-wrapped",
			data: []byte{0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x01, 0x00}, wrapped: true},
		decodeCorpusEntry{name: "seed-psb-only", data: psbMagic},
	)
	return entries
}

func corpusDir(target string) string {
	return filepath.Join("testdata", "fuzz", target)
}

func writeCorpusFile(tb testing.TB, path string, lines ...string) {
	tb.Helper()
	body := corpusHeader + "\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// readDecodeCorpusFile parses one FuzzDecode corpus file back into
// its ([]byte, bool) arguments.
func readDecodeCorpusFile(tb testing.TB, path string) (data []byte, wrapped bool) {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || lines[0] != corpusHeader {
		tb.Fatalf("%s: not a 2-argument corpus file", path)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(quoted)
	if err != nil {
		tb.Fatalf("%s: bad []byte line %q: %v", path, lines[1], err)
	}
	switch lines[2] {
	case "bool(true)":
		wrapped = true
	case "bool(false)":
	default:
		tb.Fatalf("%s: bad bool line %q", path, lines[2])
	}
	return []byte(s), wrapped
}

// TestSeedCorpusIsFresh pins the checked-in FuzzDecode corpus to the
// canonical entries. Because the seed program, the VM schedule, and
// the encoder are all deterministic, a mismatch means the trace
// format changed without regenerating the corpus (run with
// -regen-corpus), which would silently rot the fuzz seeds.
func TestSeedCorpusIsFresh(t *testing.T) {
	dir := corpusDir("FuzzDecode")
	entries := decodeCorpusEntries(t)
	if *regenCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			writeCorpusFile(t, filepath.Join(dir, e.name),
				fmt.Sprintf("[]byte(%q)", e.data), fmt.Sprintf("bool(%v)", e.wrapped))
		}
	}
	for _, e := range entries {
		data, wrapped := readDecodeCorpusFile(t, filepath.Join(dir, e.name))
		if !bytes.Equal(data, e.data) || wrapped != e.wrapped {
			t.Errorf("corpus file %s is stale (run go test -run TestSeedCorpus -regen-corpus)", e.name)
		}
	}
}

// TestFuzzCorpusReplay replays every checked-in FuzzDecode entry
// through the path a production trace takes — bytes written into a
// ring in driver-sized chunks, snapshotted, decoded — and holds the
// decoder to its total-robustness contract: an error or a valid
// trace, never a panic, an out-of-range PC, or negative timing
// uncertainty.
func TestFuzzCorpusReplay(t *testing.T) {
	mod := seedModule(t)
	files, err := filepath.Glob(filepath.Join(corpusDir("FuzzDecode"), "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("found %d corpus files, expected the checked-in seed set", len(files))
	}
	check := func(t *testing.T, tt *ThreadTrace, err error) {
		t.Helper()
		if err != nil {
			return
		}
		for _, di := range tt.Instrs {
			if int(di.PC) < 0 || int(di.PC) >= mod.NumInstrs() {
				t.Fatalf("decoded PC %d out of module range", di.PC)
			}
			if di.Uncert < 0 {
				t.Fatalf("negative uncertainty %d", di.Uncert)
			}
		}
	}
	fill := func(r *ring, data []byte) {
		for i := 0; i < len(data); i += 7 {
			end := i + 7
			if end > len(data) {
				end = len(data)
			}
			r.write(data[i:end])
		}
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, wrapped := readDecodeCorpusFile(t, path)

			// The corpus bytes exactly as checked in.
			tt, err := Decode(mod, 0, SnapshotThread{Data: data, Wrapped: wrapped},
				Config{}, ir.NoPC, 0, nil)
			check(t, tt, err)

			// Through a lossless ring: the snapshot must be
			// byte-identical and decode the same way.
			r := newRing(len(data) + 1)
			fill(r, data)
			snapData, snapWrapped := r.snapshot()
			if !bytes.Equal(snapData, data) {
				t.Fatalf("lossless ring altered the stream")
			}
			tt, err = Decode(mod, 0, SnapshotThread{Data: snapData, Wrapped: snapWrapped || wrapped},
				Config{}, ir.NoPC, 0, nil)
			check(t, tt, err)

			// Through a small ring that forces overwrite: the decoder
			// sees only the (possibly mid-packet) tail, as after a
			// long in-production run.
			small := newRing(32)
			fill(small, data)
			tail, tailWrapped := small.snapshot()
			tt, err = Decode(mod, 0, SnapshotThread{Data: tail, Wrapped: tailWrapped},
				Config{}, ir.NoPC, 0, nil)
			check(t, tt, err)
		})
	}
}

// TestEncoderRingDecoderRoundTrip is the constructive counterpart of
// the corpus replay: a genuine capture of the seed program decodes
// through DecodeSnapshot with every PC in range, proving the corpus
// seeds describe real, decodable traffic rather than junk the decoder
// happens to reject.
func TestEncoderRingDecoderRoundTrip(t *testing.T) {
	mod, snap := seedSnapshot(t)
	traces, err := DecodeSnapshot(mod, snap, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) < 2 {
		t.Fatalf("decoded %d threads, want the spawner and the worker", len(traces))
	}
	total := 0
	for _, tt := range traces {
		total += len(tt.Instrs)
		for _, di := range tt.Instrs {
			if int(di.PC) < 0 || int(di.PC) >= mod.NumInstrs() {
				t.Fatalf("decoded PC %d out of module range", di.PC)
			}
		}
	}
	if total == 0 {
		t.Fatal("round trip decoded zero instructions")
	}
}
