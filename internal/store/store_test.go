package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/pattern"
	"snorlax/internal/pt"
	"snorlax/internal/statdiag"
)

const testTenant = "deadbeefcafe0123"

func testSnap(b byte) *pt.Snapshot {
	return &pt.Snapshot{
		Threads: map[int]pt.SnapshotThread{0: {Data: []byte{b, b, b}}},
		Time:    int64(b),
	}
}

// lifecycle builds one complete fleet case's record sequence: register,
// open, accepts successes, quota, publish (an error verdict keeps the
// record small and gob-deterministic), close.
func lifecycle(tenant string, accepts int) []*Record {
	recs := []*Record{
		{Type: RecProgramRegistered, Tenant: tenant, ModuleText: "module m\n"},
		{Type: RecCaseOpened, Tenant: tenant, Case: 1, TriggerPC: 7, Want: accepts,
			Failure: &core.FailureReport{PC: 7, Tid: 1, Msg: "boom"}, Snapshot: testSnap(0xF0)},
	}
	for i := 1; i <= accepts; i++ {
		recs = append(recs, &Record{Type: RecTraceAccepted, Tenant: tenant, Case: 1,
			Client: "agent-0", Seq: uint64(i), Snapshot: testSnap(byte(i))})
	}
	recs = append(recs,
		&Record{Type: RecQuotaReached, Tenant: tenant, Case: 1},
		&Record{Type: RecReportPublished, Tenant: tenant, Case: 1, DiagErr: "no verdict"},
		&Record{Type: RecCaseClosed, Tenant: tenant, Case: 1})
	return recs
}

// describeState renders a State into a canonical text so two states can
// be compared across gob roundtrips (where nil-vs-empty map details
// would trip reflect.DeepEqual).
func describeState(st *State) string {
	var b strings.Builder
	for _, p := range st.Programs {
		fmt.Fprintf(&b, "program %s module %q nextcase %d\n", p.Tenant, p.ModuleText, p.NextCase)
		ids := make([]uint64, 0, len(p.Cases))
		for id := range p.Cases {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			c := p.Cases[id]
			fmt.Fprintf(&b, " case %d trigger %d want %d collecting %v done %v diagErr %q hasDiag %v\n",
				c.ID, c.TriggerPC, c.Want, c.Collecting, c.Done, c.DiagErr, c.Diagnosis != nil)
			for i, s := range c.Successes {
				if s == nil {
					fmt.Fprintf(&b, "  succ %d nil\n", i)
					continue
				}
				fmt.Fprintf(&b, "  succ %d time %d data %x\n", i, s.Time, s.Threads[0].Data)
			}
			clients := make([]string, 0, len(c.Clients))
			for cl := range c.Clients {
				clients = append(clients, cl)
			}
			sort.Strings(clients)
			for _, cl := range clients {
				fmt.Fprintf(&b, "  client %s seq %d\n", cl, c.Clients[cl])
			}
			for _, m := range c.Marks {
				fmt.Fprintf(&b, "  mark %s seq %d\n", m.Client, m.Seq)
			}
		}
	}
	return b.String()
}

// replayState applies recs to a fresh state, failing the test on any
// apply error — the expected-state side of recovery assertions.
func replayState(t *testing.T, recs []*Record) *State {
	t.Helper()
	st := NewState()
	for i, rec := range recs {
		if err := st.apply(rec); err != nil {
			t.Fatalf("record %d (%s) does not apply: %v", i, rec.Type, err)
		}
	}
	return st
}

func openWAL(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func appendAll(t *testing.T, w *WAL, recs []*Record) {
	t.Helper()
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("appending record %d (%s): %v", i, rec.Type, err)
		}
	}
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix)
}

func encodeAll(t *testing.T, recs []*Record) []byte {
	t.Helper()
	var data []byte
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	return data
}

// TestRecordEncoderMatchesFreshGob checks the primed encoder the WAL
// keeps: each frame it writes holds exactly the bytes a fresh gob
// encoder writes for the record, whatever it encoded before, so every
// frame decodes on its own. (The seed corpus freshness check pins
// those bytes to the checked-in format.)
func TestRecordEncoderMatchesFreshGob(t *testing.T) {
	published := &Record{Type: RecReportPublished, Tenant: testTenant, Case: 1,
		Diagnosis: &core.Diagnosis{
			Best: statdiag.Score{Pattern: &pattern.Pattern{Kind: pattern.KindOrderViolation, Sub: "WR",
				PCs: []ir.PC{3, 9}, Events: []pattern.Event{{PC: 3, Tid: 1, Time: 40}}, Rank: 1}, F1: 1},
			Unique: true, AnchorPC: 9,
			Stats: core.StageStats{TotalInstrs: 40, Workers: 2, TotalTime: 1234},
		}}
	recs := append(lifecycle(testTenant, 2), published)
	var e recordEncoder
	for round := 0; round < 2; round++ {
		for i, rec := range recs {
			frame, err := e.encode(rec)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame[frameHeaderBytes:], fresh.Bytes()) {
				t.Errorf("round %d, record %d (%s): payload differs from a fresh gob encoder's", round, i, rec.Type)
			}
			scanned, clean := ScanSegment(frame)
			if clean != len(frame) || len(scanned) != 1 || scanned[0].Record.Type != rec.Type {
				t.Errorf("round %d, record %d (%s): frame does not decode on its own", round, i, rec.Type)
			}
		}
	}
	frame, err := e.encode(published)
	if err != nil {
		t.Fatal(err)
	}
	scanned, _ := ScanSegment(frame)
	if d := scanned[0].Record.Diagnosis; d == nil || d.Best.Pattern.Key() != published.Diagnosis.Best.Pattern.Key() {
		t.Errorf("published diagnosis did not round-trip: %+v", d)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := lifecycle(testTenant, 3)
	data := encodeAll(t, recs)
	scanned, clean := ScanSegment(data)
	if clean != len(data) {
		t.Fatalf("clean segment scanned to %d of %d bytes", clean, len(data))
	}
	if len(scanned) != len(recs) {
		t.Fatalf("scanned %d records, wrote %d", len(scanned), len(recs))
	}
	for i, sr := range scanned {
		want := recs[i]
		got := sr.Record
		if got.Type != want.Type || got.Tenant != want.Tenant || got.Case != want.Case ||
			got.Client != want.Client || got.Seq != want.Seq || got.DiagErr != want.DiagErr {
			t.Errorf("record %d decoded as %+v, want %+v", i, got, want)
		}
		if want.Snapshot != nil {
			if got.Snapshot == nil || got.Snapshot.Time != want.Snapshot.Time {
				t.Errorf("record %d lost its snapshot", i)
			}
		}
		if i > 0 && sr.End <= scanned[i-1].End {
			t.Errorf("record %d End %d does not advance past %d", i, sr.End, scanned[i-1].End)
		}
	}
	if scanned[len(scanned)-1].End != len(data) {
		t.Errorf("last record ends at %d, want %d", scanned[len(scanned)-1].End, len(data))
	}

	// Replaying the scan reconstructs the same state as applying the
	// original records.
	st := NewState()
	for _, sr := range scanned {
		if err := st.apply(sr.Record); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := describeState(st), describeState(replayState(t, recs)); got != want {
		t.Errorf("scanned state:\n%s\nwant:\n%s", got, want)
	}
}

func TestScanSegmentStopsAtCorruption(t *testing.T) {
	recs := lifecycle(testTenant, 2)
	data := encodeAll(t, recs)
	scanned, _ := ScanSegment(data)
	twoEnd := scanned[1].End

	corrupt := func(mut func([]byte) []byte) (int, int) {
		buf := mut(append([]byte(nil), data...))
		recs, clean := ScanSegment(buf)
		return len(recs), clean
	}

	t.Run("torn header", func(t *testing.T) {
		n, clean := corrupt(func(b []byte) []byte { return b[:twoEnd+3] })
		if n != 2 || clean != twoEnd {
			t.Errorf("scan = %d records, clean %d; want 2, %d", n, clean, twoEnd)
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		n, clean := corrupt(func(b []byte) []byte { return b[:scanned[2].End-2] })
		if n != 2 || clean != twoEnd {
			t.Errorf("scan = %d records, clean %d; want 2, %d", n, clean, twoEnd)
		}
	})
	t.Run("garbage length", func(t *testing.T) {
		n, clean := corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[twoEnd:twoEnd+4], 0xFFFFFFFF)
			return b
		})
		if n != 2 || clean != twoEnd {
			t.Errorf("scan = %d records, clean %d; want 2, %d", n, clean, twoEnd)
		}
	})
	t.Run("crc flip", func(t *testing.T) {
		n, clean := corrupt(func(b []byte) []byte {
			b[scanned[2].End-1] ^= 0xFF // last payload byte of record 3
			return b
		})
		if n != 2 || clean != twoEnd {
			t.Errorf("scan = %d records, clean %d; want 2, %d", n, clean, twoEnd)
		}
	})
	t.Run("valid crc, not a record", func(t *testing.T) {
		// A frame whose checksum matches garbage that gob cannot decode.
		body := []byte{0x01, 0x02, 0x03, 0x04}
		frame := make([]byte, frameHeaderBytes+len(body))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
		copy(frame[frameHeaderBytes:], body)
		buf := append(append([]byte(nil), data[:twoEnd]...), frame...)
		recs, clean := ScanSegment(buf)
		if len(recs) != 2 || clean != twoEnd {
			t.Errorf("scan = %d records, clean %d; want 2, %d", len(recs), clean, twoEnd)
		}
	})
	t.Run("empty", func(t *testing.T) {
		recs, clean := ScanSegment(nil)
		if len(recs) != 0 || clean != 0 {
			t.Errorf("scan(nil) = %d records, clean %d", len(recs), clean)
		}
	})
}

func TestWALAppendCloseReopen(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 3)

	w := openWAL(t, dir, Options{})
	appendAll(t, w, recs)
	if got := w.Stats().LastLSN; got != uint64(len(recs)) {
		t.Errorf("LastLSN = %d after %d appends", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, Options{})
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs)); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	st := w2.Stats()
	if st.LastLSN != uint64(len(recs)) {
		t.Errorf("reopened LastLSN = %d, want %d", st.LastLSN, len(recs))
	}
	if st.TruncatedRecoveries != 0 {
		t.Errorf("clean reopen counted %d truncated recoveries", st.TruncatedRecoveries)
	}
	// New appends continue the LSN sequence in a fresh segment.
	if err := w2.Append(&Record{Type: RecCaseOpened, Tenant: testTenant, Case: 2, TriggerPC: 9,
		Want: 1, Failure: &core.FailureReport{PC: 9}}); err != nil {
		t.Fatal(err)
	}
	if got := w2.Stats().LastLSN; got != uint64(len(recs))+1 {
		t.Errorf("LastLSN after post-reopen append = %d, want %d", got, len(recs)+1)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(uint64(len(recs))+1))); err != nil {
		t.Errorf("reopen did not start a fresh segment at LSN %d: %v", len(recs)+1, err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 2)
	w := openWAL(t, dir, Options{})
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: garbage at the tail of the (empty) active
	// segment the next incarnation would have appended to.
	tail := filepath.Join(dir, segName(uint64(len(recs))+1))
	if err := os.WriteFile(tail, []byte("torn-half-record"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, Options{})
	st := w2.Stats()
	if st.TruncatedRecoveries != 1 {
		t.Errorf("TruncatedRecoveries = %d, want 1", st.TruncatedRecoveries)
	}
	if st.LastLSN != uint64(len(recs)) {
		t.Errorf("LastLSN = %d, want %d (torn tail must not consume LSNs)", st.LastLSN, len(recs))
	}
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs)); got != want {
		t.Errorf("recovered state diverged after torn-tail truncation:\n%s\nwant:\n%s", got, want)
	}
	if info, err := os.Stat(tail); err == nil && info.Size() != 0 {
		t.Errorf("torn tail not truncated: %d bytes remain", info.Size())
	}
}

func TestCorruptRecordDropsEverythingAfter(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 2) // 7 records
	// One record per segment: SegmentBytes 1 rotates after every append.
	w := openWAL(t, dir, Options{SegmentBytes: 1, SnapshotEvery: -1})
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in record 4's segment. Recovery must keep records
	// 1..3, truncate segment 4, and drop segments 5..8 — they are past
	// the corruption and cannot be trusted.
	seg4 := filepath.Join(dir, segName(4))
	data, err := os.ReadFile(seg4)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg4, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, Options{SegmentBytes: 1, SnapshotEvery: -1})
	st := w2.Stats()
	if st.TruncatedRecoveries != 1 {
		t.Errorf("TruncatedRecoveries = %d, want 1", st.TruncatedRecoveries)
	}
	if st.LastLSN != 3 {
		t.Errorf("LastLSN = %d, want 3", st.LastLSN)
	}
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs[:3])); got != want {
		t.Errorf("recovered state:\n%s\nwant (first 3 records):\n%s", got, want)
	}
	for lsn := uint64(5); lsn <= 8; lsn++ {
		if _, err := os.Stat(filepath.Join(dir, segName(lsn))); !os.IsNotExist(err) {
			t.Errorf("segment %d survived a truncating recovery (err=%v)", lsn, err)
		}
	}
}

func TestSegmentGapDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 2)
	w := openWAL(t, dir, Options{SegmentBytes: 1, SnapshotEvery: -1})
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(4))); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, Options{SegmentBytes: 1, SnapshotEvery: -1})
	st := w2.Stats()
	if st.LastLSN != 3 {
		t.Errorf("LastLSN = %d, want 3 (replay must stop at the gap)", st.LastLSN)
	}
	if st.TruncatedRecoveries != 1 {
		t.Errorf("TruncatedRecoveries = %d, want 1", st.TruncatedRecoveries)
	}
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs[:3])); got != want {
		t.Errorf("recovered state:\n%s\nwant (first 3 records):\n%s", got, want)
	}
	for lsn := uint64(5); lsn <= 8; lsn++ {
		if _, err := os.Stat(filepath.Join(dir, segName(lsn))); !os.IsNotExist(err) {
			t.Errorf("segment %d survived past the gap (err=%v)", lsn, err)
		}
	}
}

func TestUnreplayableRecordTruncates(t *testing.T) {
	// A record with a valid checksum that references a case the log
	// never opened is corruption too: recovery cuts there.
	dir := t.TempDir()
	good := &Record{Type: RecProgramRegistered, Tenant: testTenant, ModuleText: "module m\n"}
	bad := &Record{Type: RecTraceAccepted, Tenant: testTenant, Case: 42,
		Client: "agent-0", Seq: 1, Snapshot: testSnap(1)}
	data := encodeAll(t, []*Record{good, bad})
	goodFrame, err := encodeRecord(good)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w := openWAL(t, dir, Options{})
	st := w.Stats()
	if st.LastLSN != 1 {
		t.Errorf("LastLSN = %d, want 1", st.LastLSN)
	}
	if st.TruncatedRecoveries != 1 {
		t.Errorf("TruncatedRecoveries = %d, want 1", st.TruncatedRecoveries)
	}
	if p := w.RecoveredState().Program(testTenant); p == nil || len(p.Cases) != 0 {
		t.Errorf("recovered program state = %+v, want registered tenant with no cases", p)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(goodFrame)) {
		t.Errorf("segment truncated to %v bytes, want %d", info.Size(), len(goodFrame))
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 4) // 9 records; snapshots land at LSN 3, 6, 9
	w := openWAL(t, dir, Options{SnapshotEvery: 3})
	appendAll(t, w, recs)
	st := w.Stats()
	if st.Snapshots != 3 {
		t.Errorf("Snapshots = %d, want 3", st.Snapshots)
	}
	if st.Compactions == 0 {
		t.Error("no compaction pass ran")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction keeps only the newest snapshot and the segments past
	// it, the active (empty) segment at LSN 10, plus tenants.log, which
	// it never compacts.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{
		segName(10),
		fmt.Sprintf("%s%016d%s", snapPrefix, 9, snapSuffix),
		tenantsFile,
	}
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("dir after compaction = %v, want %v", names, want)
	}

	// Recovery restores the exact state from the snapshot alone.
	w2 := openWAL(t, dir, Options{SnapshotEvery: 3})
	if got, wantSt := describeState(w2.RecoveredState()), describeState(replayState(t, recs)); got != wantSt {
		t.Errorf("snapshot-recovered state:\n%s\nwant:\n%s", got, wantSt)
	}
	if got := w2.Stats().LastLSN; got != 9 {
		t.Errorf("LastLSN = %d, want 9", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// A garbage snapshot that sorts newer must fall back to the last
	// readable one, not poison recovery.
	junk := filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, 99, snapSuffix))
	if err := os.WriteFile(junk, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	w3 := openWAL(t, dir, Options{SnapshotEvery: 3})
	if got, wantSt := describeState(w3.RecoveredState()), describeState(replayState(t, recs)); got != wantSt {
		t.Errorf("state after garbage-snapshot fallback:\n%s\nwant:\n%s", got, wantSt)
	}
	if got := w3.Stats().LastLSN; got != 9 {
		t.Errorf("LastLSN after fallback = %d, want 9", got)
	}
}

func TestCorruptSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	recs := lifecycle(testTenant, 2)
	w := openWAL(t, dir, Options{SnapshotEvery: -1}) // keep every segment
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, 7, snapSuffix))
	if err := os.WriteFile(junk, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, Options{SnapshotEvery: -1})
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs)); got != want {
		t.Errorf("full-replay fallback state:\n%s\nwant:\n%s", got, want)
	}
	if got := w2.Stats().LastLSN; got != uint64(len(recs)) {
		t.Errorf("LastLSN = %d, want %d", got, len(recs))
	}
}

func TestSyncPolicyParseAndString(t *testing.T) {
	for _, p := range []SyncPolicy{SyncInterval, SyncAlways, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestSyncAlwaysFsyncsEveryAppend(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{SyncPolicy: SyncAlways})
	recs := lifecycle(testTenant, 1)
	before := w.Stats().Fsyncs
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		after := w.Stats().Fsyncs
		if after <= before {
			t.Fatalf("append %d did not fsync (count %d -> %d)", i, before, after)
		}
		before = after
	}
}

func TestSyncNeverKeepsAppendsOffTheFsyncPath(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{SyncPolicy: SyncNever, SnapshotEvery: -1})
	before := w.Stats().Fsyncs
	appendAll(t, w, lifecycle(testTenant, 3))
	if after := w.Stats().Fsyncs; after != before {
		t.Errorf("SyncNever appends issued %d fsyncs", after-before)
	}
	// Flush still forces durability on demand.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := w.Stats().Fsyncs; after != before+1 {
		t.Errorf("Flush issued %d fsyncs, want 1", after-before)
	}
}

func TestSyncIntervalFlushesInBackground(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{SyncPolicy: SyncInterval, SyncInterval: 2 * time.Millisecond})
	before := w.Stats().Fsyncs
	appendAll(t, w, lifecycle(testTenant, 1))
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Fsyncs == before {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never fsynced the appended records")
		}
		time.Sleep(time.Millisecond)
	}
}

// failFirstSync makes the first segment fsync block until release is
// called and then fail with EIO. The caller must release before the
// WAL closes. Later fsyncs succeed, as on Linux,
// where only the first fsync to see a write-back error reports it.
func failFirstSync(t *testing.T) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	syncFile = func(f *os.File) error {
		if calls.Add(1) > 1 {
			return f.Sync()
		}
		close(in)
		<-out
		return syscall.EIO
	}
	var once sync.Once
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	return in, func() { once.Do(func() { close(out) }) }
}

// TestBackgroundSyncErrorSurfaces fails the flusher's fsync, which
// runs outside the WAL lock, while a rotation or a Flush overlaps it.
// The overlapping call must wait for that fsync and report its error,
// and the store must stay poisoned, although the overlapping call's
// own fsync succeeds.
func TestBackgroundSyncErrorSurfaces(t *testing.T) {
	recs := lifecycle(testTenant, 2)
	first, err := encodeRecord(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		overlap func(w *WAL) error
	}{
		// The segment holds one record, so the second append rotates.
		{"rotation", func(w *WAL) error { return w.Append(recs[1]) }},
		{"flush", func(w *WAL) error { return w.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered, release := failFirstSync(t)
			defer release() // before the cleanup closes the WAL
			w := openWAL(t, t.TempDir(), Options{SyncPolicy: SyncInterval, SyncInterval: time.Millisecond,
				SegmentBytes: int64(len(first) + 1), SnapshotEvery: -1})
			if err := w.Append(recs[0]); err != nil {
				t.Fatal(err)
			}
			<-entered
			done := make(chan error, 1)
			go func() { done <- tc.overlap(w) }()
			select {
			case err := <-done:
				t.Fatalf("%s returned %v while the background fsync was still running", tc.name, err)
			case <-time.After(20 * time.Millisecond):
			}
			release()
			if err := <-done; !errors.Is(err, syscall.EIO) {
				t.Errorf("%s overlapping the failed fsync returned %v, want EIO", tc.name, err)
			}
			if err := w.Err(); !errors.Is(err, syscall.EIO) {
				t.Errorf("store error after the failed fsync is %v, want EIO", err)
			}
			if err := w.Append(recs[2]); !errors.Is(err, syscall.EIO) {
				t.Errorf("append after the failed fsync returned %v, want EIO", err)
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w := openWAL(t, t.TempDir(), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err := w.Append(&Record{Type: RecProgramRegistered, Tenant: testTenant, ModuleText: "module m\n"})
	if err != errClosed {
		t.Errorf("Append after Close = %v, want %v", err, errClosed)
	}
}

func TestAppendRejectsUnreplayableRecord(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, Options{})
	err := w.Append(&Record{Type: RecTraceAccepted, Tenant: "nobody", Case: 1,
		Client: "agent-0", Seq: 1, Snapshot: testSnap(1)})
	if err == nil {
		t.Fatal("WAL accepted a record its own replay would reject")
	}
	st := w.Stats()
	if st.AppendedRecords != 0 || st.LastLSN != 0 {
		t.Errorf("rejected record still counted: %+v", st)
	}
	if info, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || info.Size() != 0 {
		t.Errorf("rejected record reached disk: %v bytes", info.Size())
	}
	// The WAL is not poisoned: a valid record still appends.
	if err := w.Append(&Record{Type: RecProgramRegistered, Tenant: testTenant, ModuleText: "module m\n"}); err != nil {
		t.Errorf("valid append after a rejection failed: %v", err)
	}
}

func TestStatsMatchSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	w := openWAL(t, t.TempDir(), Options{Registry: reg, SnapshotEvery: 3})
	appendAll(t, w, lifecycle(testTenant, 4))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	counters := map[string]uint64{
		MetricStoreAppendedRecords:     st.AppendedRecords,
		MetricStoreAppendedBytes:       st.AppendedBytes,
		MetricStoreFsyncs:              st.Fsyncs,
		MetricStoreSnapshots:           st.Snapshots,
		MetricStoreCompactions:         st.Compactions,
		MetricStoreTruncatedRecoveries: st.TruncatedRecoveries,
	}
	for name, want := range counters {
		m := reg.Find(name)
		if m == nil || m.Counter == nil {
			t.Errorf("metric %s missing from the shared registry", name)
			continue
		}
		if got := m.Counter.Value(); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	gauges := map[string]int64{
		MetricStoreSegments: st.Segments,
		MetricStoreLastLSN:  int64(st.LastLSN),
	}
	for name, want := range gauges {
		m := reg.Find(name)
		if m == nil || m.Gauge == nil {
			t.Errorf("metric %s missing from the shared registry", name)
			continue
		}
		if got := m.Gauge.Value(); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	if m := reg.Find(MetricStoreRecordBytes); m == nil || m.Histogram == nil {
		t.Errorf("histogram %s missing from the shared registry", MetricStoreRecordBytes)
	} else if got := m.Histogram.Count(); got != st.AppendedRecords {
		t.Errorf("%s count = %d, want %d observations", MetricStoreRecordBytes, got, st.AppendedRecords)
	}
}

// TestCloseKeepsFinalMarks: closing a case prunes its dedup ledger to
// each client's final mark, sorted by client, and a repeated close
// keeps them.
func TestCloseKeepsFinalMarks(t *testing.T) {
	recs := lifecycle(testTenant, 3)
	// Re-attribute the second accept to another client.
	recs[3].Client, recs[3].Seq = "agent-1", 5
	recs = append(recs, &Record{Type: RecCaseClosed, Tenant: testTenant, Case: 1})
	c := replayState(t, recs).Program(testTenant).Cases[1]
	want := Marks{{Client: "agent-0", Seq: 3}, {Client: "agent-1", Seq: 5}}
	if c.Clients != nil || fmt.Sprint(c.Marks) != fmt.Sprint(want) {
		t.Errorf("closed case: clients %v, marks %v; want nil, %v", c.Clients, c.Marks, want)
	}
	if c.Marks.Of("agent-1") != 5 || c.Marks.Of("agent-2") != 0 {
		t.Errorf("Marks.Of = (%d, %d), want (5, 0)", c.Marks.Of("agent-1"), c.Marks.Of("agent-2"))
	}
}
