package store_test

// Crash-injection harness for the durable case store: run one fleet
// case to completion against a WAL-backed server, then re-run recovery
// from the WAL cut at every byte boundary that matters — before the
// log, at every record boundary, and twice inside every record (a torn
// header and a torn payload). Whatever the cut, a recovered server plus
// the clients' idempotent retries must converge on a report
// bit-identical to the uninterrupted run's: resumed collections accept
// exactly the missing traces (never double-counting a replayed batch),
// and post-publish cuts re-serve the report from disk without running
// diagnosis at all.
//
// SNORLAX_CRASH_SEED varies which success snapshots the fixture
// gathers (CI sweeps a few seeds); the invariants hold for all of them.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
	"snorlax/internal/store"
)

const crashQuota = 4

type crashFixture struct {
	mod      *ir.Module
	moduleTx string
	failing  *core.RunReport
	okSnaps  []*pt.Snapshot
}

func crashSeed() int64 {
	if s := os.Getenv("SNORLAX_CRASH_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

func newCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	okInst := bug.Build(corpus.Variant{Failing: false})
	okClient := core.NewClient(okInst.Mod)
	base := crashSeed()
	var snaps []*pt.Snapshot
	for seed := base; len(snaps) < crashQuota && seed < base+512; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			snaps = append(snaps, r.Snapshot)
		}
	}
	if len(snaps) < crashQuota {
		t.Fatalf("gathered %d/%d success snapshots from seed base %d", len(snaps), crashQuota, base)
	}
	return &crashFixture{mod: failInst.Mod, moduleTx: ir.Print(failInst.Mod),
		failing: rep, okSnaps: snaps}
}

// crashWALOpts keep the whole run in one segment with every record
// durable the instant it is acknowledged, so cutting the single
// segment file at a byte offset is exactly "the machine died there".
func crashWALOpts() store.Options {
	return store.Options{SyncPolicy: store.SyncAlways, SnapshotEvery: -1, SegmentBytes: 64 << 20}
}

func startCrashServer(t *testing.T, mod *ir.Module, w *store.WAL) (string, *proto.Server) {
	t.Helper()
	srv := proto.NewServer(core.NewServer(mod))
	srv.FleetQuota = crashQuota
	srv.Store = w
	if err := srv.Restore(w.RecoveredState()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String(), srv
}

// driveCase replays the fixture's whole client-side script — register,
// report the failure, upload both batches, fetch the report — exactly
// as a retrying production agent would after losing its connection: the
// protocol is idempotent, so repeating everything is always safe.
func driveCase(t *testing.T, addr string, fx *crashFixture) (proto.TenantID, proto.CaseID, *core.Diagnosis) {
	t.Helper()
	c, err := proto.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashQuota; i += 2 {
		if _, _, err := c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", uint64(i+1), fx.okSnaps[i:i+2]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		diag, done, err := c.FetchReport(id, caseID, fx.failing.Failure.PC)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if diag == nil {
				t.Fatal("case done with no diagnosis")
			}
			return id, caseID, diag
		}
		if time.Now().After(deadline) {
			t.Fatal("report never published")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCrashRecoveryAtEveryPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~30 diagnosis servers; skipped with -short")
	}
	fx := newCrashFixture(t)

	// Live pass: one uninterrupted run, SyncAlways, single segment.
	liveDir := t.TempDir()
	w, err := store.Open(liveDir, crashWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startCrashServer(t, fx.mod, w)
	_, _, liveDiag := driveCase(t, addr, fx)
	baseline := liveDiag.Fingerprint()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(liveDir, "wal-0000000000000001.log")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, clean := store.ScanSegment(data)
	if clean != len(data) {
		t.Fatalf("live WAL is not clean: %d of %d bytes", clean, len(data))
	}
	// register, open, 4 accepts, quota, publish, close.
	if len(recs) != crashQuota+5 {
		t.Fatalf("live WAL holds %d records, want %d", len(recs), crashQuota+5)
	}
	pub := len(recs) - 2
	if typ := recs[pub].Record.Type; typ != store.RecReportPublished {
		t.Fatalf("record %d is %s, want the published report", pub, typ)
	}
	publishStart, publishEnd := recs[pub-1].End, recs[pub].End

	// Cut points: the empty log, every record boundary (a crash between
	// appends), and two interior offsets per record (a torn header and a
	// torn payload). The published report carries gob-encoded stage
	// timings, whose size varies from run to run, so only the offsets up
	// to its start are fixed by the seeded fixture. A cut there is named
	// by its byte offset; a cut past it by record index and cut kind
	// (rec07/torn-header).
	type cutPoint struct {
		name string
		at   int
	}
	cutAt := func(rec int, kind string, at int) cutPoint {
		if at <= publishStart {
			return cutPoint{strconv.Itoa(at), at}
		}
		return cutPoint{fmt.Sprintf("rec%02d/%s", rec, kind), at}
	}
	boundary := map[int]bool{0: true}
	cuts := []cutPoint{cutAt(0, "empty", 0)}
	prev := 0
	for i, sr := range recs {
		boundary[sr.End] = true
		cuts = append(cuts, cutAt(i, "whole", sr.End))
		if sr.End-prev > 5 {
			cuts = append(cuts, cutAt(i, "torn-header", prev+3), cutAt(i, "torn-payload", sr.End-2))
		}
		prev = sr.End
	}

	for _, cp := range cuts {
		cut := cp.at
		t.Run(cp.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			w2, err := store.Open(dir, crashWALOpts())
			if err != nil {
				t.Fatal(err)
			}
			st := w2.Stats()
			if boundary[cut] {
				if st.TruncatedRecoveries != 0 {
					t.Errorf("boundary cut counted %d truncated recoveries", st.TruncatedRecoveries)
				}
			} else if st.TruncatedRecoveries != 1 {
				t.Errorf("interior cut counted %d truncated recoveries, want 1", st.TruncatedRecoveries)
			}

			addr2, srv2 := startCrashServer(t, fx.mod, w2)
			id, caseID, diag := driveCase(t, addr2, fx)
			if got := diag.Fingerprint(); got != baseline {
				t.Errorf("recovered report diverged from the uninterrupted run\n got %s\nwant %s", got, baseline)
			}
			// Exactly the quota, server-side: replayed batches never
			// double-count, resumed collections never over-collect.
			_, successes, ok := srv2.FleetCaseTraces(id, caseID)
			if !ok {
				t.Fatalf("case %d missing from the recovered server", caseID)
			}
			if len(successes) != crashQuota {
				t.Errorf("recovered case holds %d accepted traces, want exactly %d", len(successes), crashQuota)
			}
			// A cut at or past the publish record means the verdict is on
			// disk: it must be re-served without re-running diagnosis.
			completed := srv2.Status().CompletedDiagnoses
			if cut >= publishEnd {
				if completed != 0 {
					t.Errorf("report was on disk but the server ran %d diagnoses", completed)
				}
			} else if completed != 1 {
				t.Errorf("recovered server ran %d diagnoses, want 1", completed)
			}
		})
	}
}
