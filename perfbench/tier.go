package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
	"snorlax/internal/store"
)

// placeholder is the fleet-only server's base module, as
// `snorlax -serve -fleet` builds it: every diagnosed program arrives
// by registration.
const placeholder = "module fleet\n\nfunc main() {\nentry:\n  ret\n}\n"

// shardNode is one fleet shard: a proto.Server over its own WAL
// directory, listening on a fixed loopback address so the router can
// find it again after a restart.
type shardNode struct {
	name string
	dir  string
	base uint64
	addr string

	ps    *proto.Server
	serve sync.WaitGroup
}

// tier hosts the sharded fleet tier in-process, wired the way
// `snorlax -serve -fleet -state-dir D -case-base B` (two shards, the
// default interval-sync WAL) and `snorlax -route` wire it. One
// process means one scheduler on the machine's cores and direct
// access to every component's registry.
type tier struct {
	tr     *tracer
	shards []*shardNode
	router *shard.Router
	rserve sync.WaitGroup
	addr   string
}

func startTier(tr *tracer, dir string) (*tier, error) {
	t := &tier{tr: tr}
	for i := 0; i < 2; i++ {
		n := &shardNode{name: "s" + strconv.Itoa(i), dir: filepath.Join(dir, "s"+strconv.Itoa(i)), base: uint64(i) << 32}
		t.shards = append(t.shards, n)
		if err := n.start(tr, 0); err != nil {
			t.close()
			return nil, err
		}
	}
	members := make([]shard.Member, len(t.shards))
	for i, n := range t.shards {
		members[i] = shard.Member{Name: n.name, Addr: n.addr}
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Members:     members,
		Retry:       proto.RetryConfig{MaxAttempts: 8},
		IdleTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.router, t.addr = r, ln.Addr().String()
	t.rserve.Add(1)
	go func() {
		defer t.rserve.Done()
		r.Serve(ln)
	}()
	return t, nil
}

// start opens the shard's store (replaying whatever is on disk),
// restores the fleet state and serves. Both calls are spans under
// parent.
func (n *shardNode) start(tr *tracer, parent int64) error {
	cs := core.NewServer(mustParse(placeholder))
	ps := proto.NewServer(cs)
	ps.IdleTimeout = 2 * time.Minute
	ps.WriteTimeout = 30 * time.Second
	ps.CaseBase = n.base

	id := tr.begin(spanStoreOpen, 0, parent)
	w, err := store.Open(n.dir, store.Options{SyncPolicy: store.SyncInterval, Registry: ps.Metrics()})
	if err != nil {
		tr.end(id, "", 0)
		return err
	}
	tr.end(id, "", replayedRecords(n.dir, w))
	ps.Store = w
	id = tr.begin(spanRestore, 0, parent)
	err = ps.Restore(w.RecoveredState())
	tr.end(id, "", 0)
	if err != nil {
		w.Close()
		return err
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		w.Close()
		return err
	}
	n.ps, n.addr = ps, ln.Addr().String()
	n.serve.Add(1)
	go func() {
		defer n.serve.Done()
		ps.Serve(ln)
	}()
	return nil
}

// stop drains the shard and closes its store (Shutdown flushes and
// fsyncs it), then waits for the accept loop to return.
func (n *shardNode) stop() error {
	if n.ps == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := n.ps.Shutdown(ctx)
	n.serve.Wait()
	n.ps = nil
	return err
}

// replayedRecords is how many log records store.Open replayed past
// its newest snapshot: the recovered LSN minus the snapshot's.
func replayedRecords(dir string, w *store.WAL) int64 {
	last := int64(w.Stats().LastLSN)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return last
	}
	var snap int64
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "state-") && strings.HasSuffix(name, ".snap") {
			if v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "state-"), ".snap"), 10, 64); err == nil && v > snap {
				snap = v
			}
		}
	}
	return last - snap
}

// registries are the shards' shared registries (pipeline, protocol and
// store metrics) plus the router's.
func (t *tier) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, n := range t.shards {
		if n.ps != nil {
			regs = append(regs, n.ps.Metrics())
		}
	}
	if t.router != nil {
		regs = append(regs, t.router.Metrics())
	}
	return regs
}

// register pre-registers a parsed deployment on every shard, as the
// router's broadcast would.
func (t *tier) register(mod *ir.Module, caseID int64) (proto.TenantID, error) {
	var tid proto.TenantID
	for _, n := range t.shards {
		id := t.tr.begin(spanRegister, caseID, 0)
		got, err := n.ps.RegisterProgram(mod)
		t.tr.end(id, "", 0)
		if err != nil {
			return "", err
		}
		tid = got
	}
	return tid, nil
}

// caseTraces finds a case's traces on whichever shard owns it.
func (t *tier) caseTraces(tenant proto.TenantID, c proto.CaseID) (*core.RunReport, []*core.RunReport, bool) {
	for _, n := range t.shards {
		if f, s, ok := n.ps.FleetCaseTraces(tenant, c); ok {
			return f, s, true
		}
	}
	return nil, nil, false
}

func (t *tier) dial() (*proto.Conn, error) {
	c, err := net.Dial("tcp", t.addr)
	if err != nil {
		return nil, err
	}
	return proto.NewConn(c), nil
}

// stopShards stops both shards concurrently.
func (t *tier) stopShards() error {
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, n := range t.shards {
		wg.Add(1)
		go func(i int, n *shardNode) {
			defer wg.Done()
			errs[i] = n.stop()
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// startShards cold-starts both shards concurrently from their state
// directories, as two restarted processes would.
func (t *tier) startShards(parent int64) error {
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, n := range t.shards {
		wg.Add(1)
		go func(i int, n *shardNode) {
			defer wg.Done()
			errs[i] = n.start(t.tr, parent)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops the router and the shards and waits for every serving
// goroutine the tier started.
func (t *tier) close() error {
	var errs []error
	if t.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, t.router.Shutdown(ctx))
		cancel()
		t.rserve.Wait()
		t.router = nil
	}
	errs = append(errs, t.stopShards())
	return errors.Join(errs...)
}

// closeTier closes the tier at the end of a round, reporting a close
// error (a WAL that failed to flush) unless the round already failed.
func closeTier(t *tier, err *error) {
	if cerr := t.close(); *err == nil {
		*err = cerr
	}
}

func mustParse(text string) *ir.Module {
	m, err := ir.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("perfbench: built-in module does not parse: %v", err))
	}
	return m
}
