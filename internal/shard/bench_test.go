package shard_test

import (
	"context"
	"net"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
	"snorlax/internal/shard"
)

// BenchmarkWireUpload measures sustained fleet batch upload throughput
// through the production topology — agent → router → owning shard —
// with real traced snapshots: the router relays raw frames and the
// shard assembles them as they stream in. Each timed iteration uploads
// the batch to a case that has already met its quota and closed, so
// the shard does the complete wire-decode work and then rejects
// cheaply — the steady state of a fleet at quota, with no memory
// growth across b.N. The perf lane gates it against the checked-in
// baseline (scripts/bench.sh, scripts/benchgate).
func BenchmarkWireUpload(b *testing.B) {
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("pbzip2-1 failing variant did not fail")
	}
	okClient := core.NewClient(bug.Build(corpus.Variant{Failing: false}).Mod)
	var uniq []*pt.Snapshot
	for seed := int64(1); len(uniq) < 16 && seed < 4096; seed++ {
		if r := okClient.Run(seed, rep.Failure.PC); !r.Failed() && r.Triggered {
			uniq = append(uniq, r.Snapshot)
		}
	}
	if len(uniq) < 4 {
		b.Fatalf("gathered only %d triggered snapshots", len(uniq))
	}
	// A 64-snapshot batch: the shape a fleet's flush-and-retry cycle
	// presents to the router. Snapshots repeat (ring bytes are
	// read-only on the encode side), decoupling the batch size from
	// how many seeds happen to trigger.
	batch := make([]*pt.Snapshot, 64)
	var batchBytes int64
	for i := range batch {
		batch[i] = uniq[i%len(uniq)]
		for _, th := range batch[i].Threads {
			batchBytes += int64(len(th.Data))
		}
	}

	// The sub-benchmark keeps the name its baseline samples are
	// recorded under (.github/bench-baseline.txt).
	b.Run("binary", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := proto.NewServer(core.NewServer(failInst.Mod))
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		router, err := shard.NewRouter(shard.RouterConfig{
			Members: []shard.Member{{Name: "shard-0", Addr: ln.Addr().String()}},
		})
		if err != nil {
			b.Fatal(err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go router.Serve(rln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			router.Shutdown(ctx)
		}()
		nc, err := net.Dial("tcp", rln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		c := proto.NewConn(nc)
		defer c.Close()
		tenant, err := c.Register(ir.Print(failInst.Mod))
		if err != nil {
			b.Fatal(err)
		}
		caseID, _, _, err := c.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
		if err != nil {
			b.Fatal(err)
		}
		// Drive the case to quota and through publication so the
		// timed loop measures pure wire ingest, not diagnosis.
		seq := uint64(1)
		for done := false; !done; seq++ {
			if seq > 64 {
				b.Fatal("case did not close after 64 batches")
			}
			if _, done, err = c.UploadBatch(tenant, caseID, rep.Failure.PC, "bench", seq, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(batchBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.UploadBatch(tenant, caseID, rep.Failure.PC, "bench", seq+uint64(i), batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
