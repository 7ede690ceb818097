package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snorlax/internal/core"
)

// Snapshots keep module texts out of the state they encode: each
// program's registration record is written to tenants.log once, and a
// snapshot covers a prefix of it. These tests crash a snapshot after
// each of its file steps, damage tenants.log, and load snapshots
// written before tenants.log existed.

const (
	tenantA = "aaaaaaaaaaaaaaaa"
	tenantB = "bbbbbbbbbbbbbbbb"
	tenantC = "cccccccccccccccc"
)

// textOf is a tenant's module text, distinct per tenant so a test can
// look for it in a file's bytes.
func textOf(tenant string) string {
	return fmt.Sprintf("module %s\n; %s\n", tenant, strings.Repeat(tenant[:1], 300))
}

// snapshotWALOpts snapshot every 4 records, so snapshotRecords
// snapshots at LSN 4 (registers A and B), 8 (registers nothing) and
// 12 (registers C), then leaves two records in the active segment.
func snapshotWALOpts() Options {
	return Options{SyncPolicy: SyncNever, SnapshotEvery: 4}
}

func snapshotRecords() []*Record {
	reg := func(tenant string) *Record {
		return &Record{Type: RecProgramRegistered, Tenant: tenant, ModuleText: textOf(tenant)}
	}
	open := func(tenant string) *Record {
		return &Record{Type: RecCaseOpened, Tenant: tenant, Case: 1, TriggerPC: 7, Want: 2,
			Failure: &core.FailureReport{PC: 7, Tid: 1, Msg: "boom"}, Snapshot: testSnap(0xF0)}
	}
	accept := func(tenant string, seq uint64) *Record {
		return &Record{Type: RecTraceAccepted, Tenant: tenant, Case: 1,
			Client: "agent-0", Seq: seq, Snapshot: testSnap(byte(seq))}
	}
	return []*Record{
		reg(tenantA), reg(tenantB), open(tenantA), accept(tenantA, 1), // snapshot 4
		accept(tenantA, 2),
		{Type: RecQuotaReached, Tenant: tenantA, Case: 1},
		{Type: RecReportPublished, Tenant: tenantA, Case: 1, DiagErr: "no verdict"},
		{Type: RecCaseClosed, Tenant: tenantA, Case: 1}, // snapshot 8
		reg(tenantC), open(tenantC), accept(tenantC, 1), open(tenantB), // snapshot 12
		accept(tenantB, 1),
		{Type: RecQuotaReached, Tenant: tenantC, Case: 1},
	}
}

// snapFile is the path of the snapshot covering lsn in dir.
func snapFile(dir string, lsn uint64) string {
	return (&WAL{dir: dir}).snapPath(lsn)
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func truncateFile(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// checkTenantsLog asserts that tenants.log registers st's programs at
// most once each, in registration order, with their texts.
func checkTenantsLog(t *testing.T, dir string, st *State) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, tenantsFile))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	recs, clean := ScanSegment(data)
	if clean != len(data) {
		t.Errorf("tenants.log scans clean to %d of %d bytes", clean, len(data))
	}
	if len(recs) > len(st.Programs) {
		t.Fatalf("tenants.log holds %d records for %d programs", len(recs), len(st.Programs))
	}
	for i, sr := range recs {
		p := st.Programs[i]
		if sr.Record.Type != RecProgramRegistered || sr.Record.Tenant != p.Tenant || sr.Record.ModuleText != p.ModuleText {
			t.Errorf("tenants.log record %d is %s of %.8s, want the registration of %.8s", i, sr.Record.Type, sr.Record.Tenant, p.Tenant)
		}
	}
}

// crashCopy is the state directory as a crash during a snapshot would
// leave it. applied is how many records were appended by then.
type crashCopy struct {
	step    string
	applied int
	dir     string
	// tenantsBefore is tenants.log's length before this snapshot's
	// append, tenantsAfter its length in the copy.
	tenantsBefore, tenantsAfter int64
}

// TestSnapshotCrashAtEveryStep crashes each snapshot after each of its
// file steps: the append to tenants.log, its fsync, the temporary
// snapshot, the rename and the compaction. Whatever the step, and
// with tenants.log's new tail whole, torn or lost, recovery must land
// on the state of the records appended so far, and appending the rest
// must reach the state of the whole log with every text in tenants.log
// once. A tenants.log shorter than a snapshot's prefix, or missing,
// must recover exactly as if that snapshot were corrupt.
func TestSnapshotCrashAtEveryStep(t *testing.T) {
	recs := snapshotRecords()
	dir := t.TempDir()
	w := openWAL(t, dir, snapshotWALOpts())

	var copies []crashCopy
	applied := 0
	var before int64
	snapshotStep = func(step string) {
		d := copyDir(t, dir)
		var after int64
		if info, err := os.Stat(filepath.Join(d, tenantsFile)); err == nil {
			after = info.Size()
		}
		copies = append(copies, crashCopy{step: step, applied: applied, dir: d,
			tenantsBefore: before, tenantsAfter: after})
	}
	defer func() { snapshotStep = func(string) {} }()
	for i, rec := range recs {
		applied = i + 1
		before = w.tenantsBytes
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	snapshotStep = func(string) {}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, c := range copies {
		steps = append(steps, fmt.Sprintf("%s@%d", c.step, c.applied))
	}
	wantSteps := "[tenants-appended@4 tenants-synced@4 snapshot-written@4 snapshot-renamed@4 compacted@4 " +
		"snapshot-written@8 snapshot-renamed@8 compacted@8 " +
		"tenants-appended@12 tenants-synced@12 snapshot-written@12 snapshot-renamed@12 compacted@12]"
	if got := fmt.Sprint(steps); got != wantSteps {
		t.Fatalf("snapshot steps = %s\nwant %s", got, wantSteps)
	}
	full := describeState(replayState(t, recs))

	// recoverAndFinish opens dir, checks the recovered state against
	// want, then appends the records past LSN and checks the result.
	recoverAndFinish := func(t *testing.T, dir string, want int) {
		t.Helper()
		w := openWAL(t, dir, snapshotWALOpts())
		if got, wantSt := describeState(w.RecoveredState()), describeState(replayState(t, recs[:want])); got != wantSt {
			t.Fatalf("recovered state:\n%s\nwant:\n%s", got, wantSt)
		}
		if got := w.Stats().LastLSN; got != uint64(want) {
			t.Fatalf("recovered LSN %d, want %d", got, want)
		}
		appendAll(t, w, recs[want:])
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2 := openWAL(t, dir, snapshotWALOpts())
		if got := describeState(w2.RecoveredState()); got != full {
			t.Fatalf("state after finishing the log:\n%s\nwant:\n%s", got, full)
		}
		checkTenantsLog(t, dir, w2.RecoveredState())
	}
	// openState opens dir and describes what it recovered.
	openState := func(t *testing.T, dir string) (string, uint64) {
		t.Helper()
		w := openWAL(t, dir, snapshotWALOpts())
		defer w.Close()
		return describeState(w.RecoveredState()), w.Stats().LastLSN
	}
	tenantsLog := func(dir string) string { return filepath.Join(dir, tenantsFile) }

	for _, c := range copies {
		name := fmt.Sprintf("%s@%d", c.step, c.applied)
		t.Run(name, func(t *testing.T) {
			recoverAndFinish(t, copyDir(t, c.dir), c.applied)
		})
		if c.tenantsAfter > c.tenantsBefore && c.step == "tenants-appended" {
			// The append was never fsynced: its tail may be torn or gone.
			t.Run(name+"/torn-tail", func(t *testing.T) {
				d := copyDir(t, c.dir)
				truncateFile(t, tenantsLog(d), fileSize(t, tenantsLog(d))-3)
				recoverAndFinish(t, d, c.applied)
			})
			t.Run(name+"/lost-tail", func(t *testing.T) {
				d := copyDir(t, c.dir)
				truncateFile(t, tenantsLog(d), c.tenantsBefore)
				recoverAndFinish(t, d, c.applied)
			})
		}
		if c.step == "compacted" {
			// Garbage past a snapshot's prefix is a snapshot that never
			// landed; recovery cuts it off.
			t.Run(name+"/garbage-tail", func(t *testing.T) {
				d := copyDir(t, c.dir)
				f, err := os.OpenFile(tenantsLog(d), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("torn registration")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				recoverAndFinish(t, d, c.applied)
				if got := fileSize(t, tenantsLog(d)); got == 0 {
					t.Error("tenants.log emptied")
				}
			})
		}
		if c.step != "snapshot-renamed" && c.step != "compacted" {
			continue
		}
		// A tenants.log that no longer covers the snapshot: shorter, or
		// missing. Both recover as if every snapshot it no longer
		// covers were corrupt.
		for _, kind := range []string{"short", "missing"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				d := copyDir(t, c.dir)
				if kind == "short" {
					truncateFile(t, tenantsLog(d), c.tenantsAfter-1)
				} else if err := os.Remove(tenantsLog(d)); err != nil {
					t.Fatal(err)
				}
				corrupt := copyDir(t, c.dir)
				snaps, err := (&WAL{dir: corrupt}).listFiles(snapPrefix, snapSuffix)
				if err != nil {
					t.Fatal(err)
				}
				for _, lsn := range snaps {
					sf, err := loadSnapshot(snapFile(corrupt, lsn))
					if err != nil {
						t.Fatal(err)
					}
					if kind == "missing" || sf.TenantsBytes >= c.tenantsAfter {
						if err := os.WriteFile(snapFile(corrupt, lsn), []byte("garbage"), 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				gotSt, gotLSN := openState(t, d)
				wantSt, wantLSN := openState(t, corrupt)
				if gotSt != wantSt || gotLSN != wantLSN {
					t.Errorf("recovered LSN %d:\n%s\nwant what a corrupt snapshot recovers, LSN %d:\n%s", gotLSN, gotSt, wantLSN, wantSt)
				}
				// Before the first compaction the segments still hold
				// every record, so nothing is lost.
				if c.applied == 4 && c.step == "snapshot-renamed" {
					recoverAndFinish(t, d, c.applied)
				}
			})
		}
	}
}

// TestSnapshotsHoldNoModuleText checks what each snapshot writes: a
// snapshot that registers no new tenant leaves tenants.log as it was,
// no snapshot file holds a module text, and tenants.log ends with each
// text once.
func TestSnapshotsHoldNoModuleText(t *testing.T) {
	recs := snapshotRecords()
	dir := t.TempDir()
	w := openWAL(t, dir, snapshotWALOpts())
	tenantsLen := map[int]int64{}
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 != 0 {
			continue
		}
		tenantsLen[i+1] = fileSize(t, filepath.Join(dir, tenantsFile))
		snap, err := os.ReadFile(snapFile(dir, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tenant := range []string{tenantA, tenantB, tenantC} {
			if bytes.Contains(snap, []byte(textOf(tenant))) {
				t.Errorf("snapshot at LSN %d holds %.8s's module text", i+1, tenant)
			}
		}
	}
	if tenantsLen[8] != tenantsLen[4] {
		t.Errorf("a snapshot that registers no tenant grew tenants.log from %d to %d bytes", tenantsLen[4], tenantsLen[8])
	}
	if tenantsLen[12] <= tenantsLen[8] {
		t.Errorf("registering a tenant left tenants.log at %d bytes", tenantsLen[12])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, tenantsFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{tenantA, tenantB, tenantC} {
		if n := bytes.Count(data, []byte(textOf(tenant))); n != 1 {
			t.Errorf("tenants.log holds %.8s's text %d times, want once", tenant, n)
		}
	}
	w2 := openWAL(t, dir, snapshotWALOpts())
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs)); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	checkTenantsLog(t, dir, w2.RecoveredState())
}

// legacySnapshot is the snapshot payload as written before tenants.log
// existed: the state with every module text inline.
type legacySnapshot struct {
	LSN   uint64
	State *State
}

// TestLegacySnapshotLoads opens a state directory whose snapshot holds
// the module texts inline. It must recover the same state, and its
// next snapshot must move every text, old tenants' included, into
// tenants.log.
func TestLegacySnapshotLoads(t *testing.T) {
	recs := snapshotRecords()
	dir := t.TempDir()
	frame, err := encodeFramed(&legacySnapshot{LSN: 8, State: replayState(t, recs[:8])})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapFile(dir, 8), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openWAL(t, dir, snapshotWALOpts())
	if got, want := describeState(w.RecoveredState()), describeState(replayState(t, recs[:8])); got != want {
		t.Fatalf("legacy snapshot recovered:\n%s\nwant:\n%s", got, want)
	}
	appendAll(t, w, recs[8:12]) // snapshot at 12
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, tenantsFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapFile(dir, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{tenantA, tenantB, tenantC} {
		if n := bytes.Count(data, []byte(textOf(tenant))); n != 1 {
			t.Errorf("tenants.log holds %.8s's text %d times, want once", tenant, n)
		}
		if bytes.Contains(snap, []byte(textOf(tenant))) {
			t.Errorf("the snapshot after the legacy one holds %.8s's text", tenant)
		}
	}
	w2 := openWAL(t, dir, snapshotWALOpts())
	if got, want := describeState(w2.RecoveredState()), describeState(replayState(t, recs[:12])); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	checkTenantsLog(t, dir, w2.RecoveredState())
}
