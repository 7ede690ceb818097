package proto

import (
	"strconv"
	"testing"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
	"snorlax/internal/store"
)

// restoreBenchState publishes one case per corpus program (58 tenants)
// through a WAL-backed server and returns the state a reopened store
// recovers: what a restarted shard hands Restore.
func restoreBenchState(b *testing.B) (*store.State, *ir.Module) {
	b.Helper()
	dir := b.TempDir()
	w, err := store.Open(dir, store.Options{SyncPolicy: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	bugs := append(corpus.All(), corpus.Extensions()...)
	var placeholder *ir.Module
	var srv *Server
	for _, bug := range bugs {
		fail := bug.Build(corpus.Variant{Failing: true}).Mod
		ok := bug.Build(corpus.Variant{Failing: false}).Mod
		if srv == nil {
			placeholder = fail
			srv = NewServer(core.NewServer(fail))
			srv.Store = w
		}
		var failing *core.RunReport
		for seed := int64(1); seed <= 64 && failing == nil; seed++ {
			if r := core.NewClient(fail).Run(seed, ir.NoPC); r.Failed() {
				failing = r
			}
		}
		if failing == nil {
			b.Fatalf("%s: no failure within 64 runs", bug.ID)
		}
		var snaps []*pt.Snapshot
		okc := core.NewClient(ok)
		for seed := int64(1); len(snaps) < DefaultFleetQuota && seed <= 64; seed++ {
			if r := okc.Run(seed, failing.Failure.PC); !r.Failed() && r.Triggered {
				snaps = append(snaps, r.Snapshot)
			}
		}
		id, err := srv.RegisterProgram(fail)
		if err != nil {
			b.Fatal(err)
		}
		t := srv.tenantByID(id)
		c, err := srv.openCase(t, failing.Failure, failing.Snapshot)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, crossed, err := srv.acceptBatch(t, c, "agent-0", 1, snaps); err != nil || !crossed {
			b.Fatalf("%s: %d successes did not fill the quota (%v)", bug.ID, len(snaps), err)
		}
		if err := srv.publishCase(t, c); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	w, err = store.Open(dir, store.Options{SyncPolicy: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	st := w.RecoveredState()
	if len(st.Programs) != len(bugs) {
		b.Fatalf("recovered %d tenants, want %d", len(st.Programs), len(bugs))
	}
	return st, placeholder
}

// BenchmarkFleetRestore times Server.Restore of a 58-tenant state with
// one published case per tenant: the blocking step between a shard's
// store.Open and its first served request.
func BenchmarkFleetRestore(b *testing.B) {
	st, mod := restoreBenchState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewServer(core.NewServer(mod)).Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterProgram registers one new program per op on a
// WAL-backed server: print and fingerprint the module, log its
// registration record and build the tenant's analysis server. Each op
// renames the same corpus module (httpd-4, 62 KB of text), so every
// registration is new.
func BenchmarkRegisterProgram(b *testing.B) {
	w, err := store.Open(b.TempDir(), store.Options{SyncPolicy: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	mod := corpus.ByID("httpd-4").Build(corpus.Variant{Failing: true}).Mod
	srv := NewServer(core.NewServer(mod))
	srv.Store = w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Name = "bench-" + strconv.Itoa(i)
		if _, err := srv.RegisterProgram(mod); err != nil {
			b.Fatal(err)
		}
	}
}
