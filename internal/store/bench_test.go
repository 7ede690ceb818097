package store

import (
	"fmt"
	"strings"
	"testing"
)

// benchRecord returns the append workload: one trace-accepted record
// with a realistic snapshot payload, the dominant record type of a
// collecting fleet.
func benchRecord(seq uint64) *Record {
	return &Record{Type: RecTraceAccepted, Tenant: testTenant, Case: 1,
		Client: "agent-0", Seq: seq, Snapshot: testSnap(byte(seq))}
}

// BenchmarkWALAppend measures the append path per sync policy —
// records/s and bytes/s — with snapshots disabled so the numbers are
// pure log cost. SyncAlways pays an fsync per record; SyncInterval and
// SyncNever show what moving durability off the append path buys.
func BenchmarkWALAppend(b *testing.B) {
	frame, err := encodeRecord(benchRecord(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{SyncPolicy: policy, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// Keep the log lifecycle-valid even though validation is off:
			// a register and an open precede the accepts.
			if err := w.Append(&Record{Type: RecProgramRegistered, Tenant: testTenant,
				ModuleText: "module m\n"}); err != nil {
				b.Fatal(err)
			}
			if err := w.Append(&Record{Type: RecCaseOpened, Tenant: testTenant, Case: 1,
				TriggerPC: 7, Want: 1 << 30}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(benchRecord(uint64(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkRecoveryReplay measures cold-start recovery: scanning and
// replaying a multi-thousand-record segment into fleet state, the cost
// a restarted server pays before it can serve.
func BenchmarkRecoveryReplay(b *testing.B) {
	const accepts = 2048
	dir := b.TempDir()
	w, err := Open(dir, Options{SyncPolicy: SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecProgramRegistered, Tenant: testTenant,
		ModuleText: "module m\n"}); err != nil {
		b.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecCaseOpened, Tenant: testTenant, Case: 1,
		TriggerPC: 7, Want: accepts}); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= accepts; i++ {
		if err := w.Append(benchRecord(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	records := accepts + 2

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Open(dir, Options{SyncPolicy: SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Stats().LastLSN; got != uint64(records) {
			b.Fatalf("recovered LSN %d, want %d", got, records)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWALSnapshot measures one snapshot of a fleet of 64 tenants,
// each with a ~46 KB module text and one closed case, after one
// appended record. Every tenant is already in
// tenants.log, so this is the steady-state snapshot: rotate, encode the
// state without texts, write and rename it, compact.
func BenchmarkWALSnapshot(b *testing.B) {
	const tenants, accepts = 64, 4
	w, err := Open(b.TempDir(), Options{SyncPolicy: SyncNever, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	line := strings.Repeat("x", 90) + "\n"
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("%016x", i+1)
		text := fmt.Sprintf("module m%d\n%s", i, strings.Repeat(line, 46<<10/len(line)))
		recs := []*Record{
			{Type: RecProgramRegistered, Tenant: tenant, ModuleText: text},
			{Type: RecCaseOpened, Tenant: tenant, Case: 1, TriggerPC: 7, Want: accepts, Snapshot: testSnap(0xF0)},
		}
		for seq := uint64(1); seq <= accepts; seq++ {
			recs = append(recs, &Record{Type: RecTraceAccepted, Tenant: tenant, Case: 1,
				Client: "agent-0", Seq: seq, Snapshot: testSnap(byte(seq))})
		}
		recs = append(recs,
			&Record{Type: RecQuotaReached, Tenant: tenant, Case: 1},
			&Record{Type: RecReportPublished, Tenant: tenant, Case: 1, DiagErr: "no verdict"},
			&Record{Type: RecCaseClosed, Tenant: tenant, Case: 1})
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Each snapshot follows one record that leaves the state as it was,
	// so every iteration encodes the same state.
	last := fmt.Sprintf("%016x", tenants)
	snapshot := func() {
		if err := w.Append(&Record{Type: RecQuotaReached, Tenant: last, Case: 1}); err != nil {
			b.Fatal(err)
		}
		w.mu.Lock()
		err := w.snapshotLocked()
		w.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	snapshot() // writes every text to tenants.log
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot()
	}
}
