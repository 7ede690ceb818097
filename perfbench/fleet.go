package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
)

// conns is how many connections (and load goroutines) drive the tier:
// no more than the two cores the benchmark is sized for.
const conns = 2

// Work per round. Each round starts a fresh tier on an empty state
// directory and does exactly this much, so the WAL's whole-state
// snapshots (one per 1024 appends) land at the same points every
// round instead of growing with the run's length.
const (
	saturateWarm    = 4   // untimed cases before the measured ones
	saturateCases   = 290 // measured cases per round: five per program
	restartCases    = 58  // published in set-up, re-served per restart
	restartsPerRnd  = 8   // measured cold restarts per round
	fetchAttempts   = 200 // report polls before a case counts as timed out
	fetchRetryPause = 2 * time.Millisecond
)

// ops counts one phase's operations and the layer events the per-layer
// metrics need. A nil *ops (warm-up) counts nothing.
type ops struct {
	attempted, failed  atomic.Int64
	uploaded, accepted atomic.Int64
	polls, useful      atomic.Int64
}

// call runs one RPC as a span and counts it; rename (from fn) relabels
// the span once the reply says what the call turned out to be.
func (o *ops) call(tr *tracer, name string, caseID, parent, agent int64, fn func() (rename string, err error)) error {
	id := tr.begin(name, caseID, parent)
	rename, err := fn()
	tr.end(id, rename, agent)
	if o != nil {
		o.attempted.Add(1)
		if err != nil {
			o.failed.Add(1)
		}
	}
	return err
}

// upload counts snapshots offered and accepted toward a quota.
func (o *ops) upload(offered, accepted int) {
	if o != nil {
		o.uploaded.Add(int64(offered))
		o.accepted.Add(int64(accepted))
	}
}

// poll counts a directive poll; useful means it listed the agent's
// case as still collecting.
func (o *ops) poll(useful bool) {
	if o != nil {
		o.polls.Add(1)
		if useful {
			o.useful.Add(1)
		}
	}
}

// absorb moves the phase's counts into the round.
func (rc *roundCtx) absorb(o *ops) {
	rc.attempted += int(o.attempted.Load())
	rc.failed += int(o.failed.Load())
	rc.uploaded += o.uploaded.Load()
	rc.accepted += o.accepted.Load()
	rc.polls += o.polls.Load()
	rc.usefulPolls += o.useful.Load()
}

// chargeRetries counts the router's transport retries in the measured
// phases as operations: each is an attempt that failed, so a run whose
// RPCs only got through on a retry is not correct, whatever its
// latency.
func (rc *roundCtx) chargeRetries() {
	if n := int(rc.ctr[shard.MetricRouterRetries]); n > 0 {
		rc.attempted += n
		rc.failed += n
		rc.problem("the router retried %d forwards", n)
	}
}

// fcase is one diagnosis case driven through the fleet tier.
type fcase struct {
	num     int64 // 1-based, shared by the case's spans
	pool    *tracePool
	text    string
	tenant  proto.TenantID
	id      proto.CaseID
	trigger ir.PC
	diag    *core.Diagnosis
	ttd     time.Duration
	err     error
}

// newCases makes warm+n fresh deployments: the warm-up cases are the
// first programs in corpus order, the same in every round and for
// every seed, so the state they leave is constant; the n measured
// cases are dealt over the pools in seeded order.
func newCases(rc *roundCtx, pools []*tracePool, warm, n int) []*fcase {
	var order []int
	for i := 0; i < warm; i++ {
		order = append(order, i%len(pools))
	}
	order = append(order, caseOrder(rc.rng, pools, n)...)
	cases := make([]*fcase, len(order))
	for i, pi := range order {
		p := pools[pi]
		cases[i] = &fcase{num: rc.caseBase() + int64(i+1), pool: p,
			text: deploymentText(p.prog, fmt.Sprintf("%s.s%d.r%d.d%d", p.prog.id, rc.seed, rc.idx, i))}
	}
	return cases
}

// parallel runs fn(w, i) for i in 0..n-1 on conns goroutines, w being
// the goroutine's index, and returns the first error.
func parallel(n int, fn func(w, i int) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[w] == nil; i = int(next.Add(1)) - 1 {
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// parseCases parses every deployment text, as registration would, and
// hands each module to then (nil: parse only).
func parseCases(tr *tracer, cases []*fcase, then func(c *fcase, m *ir.Module) error) error {
	return parallel(len(cases), func(_, i int) error {
		c := cases[i]
		id := tr.begin(spanParse, c.num, 0)
		m, err := ir.Parse(c.text)
		tr.end(id, "", 0)
		if err != nil {
			return fmt.Errorf("deployment %d: %w", c.num, err)
		}
		if then != nil {
			return then(c, m)
		}
		return nil
	})
}

// fleetSetup is the set-up every fleet workload shares: the corpus,
// its trace pools (VM runs) and a fresh tier.
func fleetSetup(rc *roundCtx) ([]*tracePool, *tier, error) {
	pools, err := buildPools(rc.tr, loadPrograms(), rc.seed)
	if err != nil {
		return nil, nil, err
	}
	t, err := startTier(rc.tr, rc.dir)
	if err != nil {
		return nil, nil, err
	}
	return pools, t, nil
}

// closedLoop runs each case through do on conns connections, each case
// picked up as soon as a connection is free (no think time). A case
// whose call fails keeps its error; its connection is replaced.
func closedLoop(t *tier, cases []*fcase, do func(conn *proto.Conn, c *fcase) error) error {
	var open [conns]*proto.Conn
	defer func() {
		for _, c := range open {
			if c != nil {
				c.Close()
			}
		}
	}()
	return parallel(len(cases), func(w, i int) error {
		if open[w] == nil {
			c, err := t.dial()
			if err != nil {
				return err
			}
			open[w] = c
		}
		if err := do(open[w], cases[i]); err != nil {
			cases[i].err = err
			open[w].Close()
			open[w] = nil
		}
		return nil
	})
}

// saturateCase is one fleet-saturate case: one failure report, batches
// of two until the quota is met (the last one publishes), one fetch.
func saturateCase(tr *tracer, o *ops, conn *proto.Conn, c *fcase) error {
	root := tr.begin(spanCase, c.num, 0)
	start := time.Now()
	defer func() {
		c.ttd = time.Since(start)
		tr.end(root, "", 0)
	}()
	var done bool
	if err := o.call(tr, rpcFailure, c.num, root, 0, func() (string, error) {
		var d proto.Directive
		var err error
		c.id, d, done, err = conn.ReportFleetFailure(c.tenant, c.pool.failing.Failure, c.pool.failing.Snapshot)
		c.trigger = d.TriggerPC
		return "", err
	}); err != nil {
		return err
	}
	client := fmt.Sprintf("agent-%d", c.num)
	for seq := uint64(1); !done; seq += batchSize {
		if int(seq)+batchSize-1 > len(c.pool.snapshots) {
			return fmt.Errorf("case %d: quota not met after %d uploads", c.num, seq-1)
		}
		snaps := c.pool.snapshots[seq-1 : int(seq)-1+batchSize]
		if err := o.call(tr, rpcUpload, c.num, root, 0, func() (string, error) {
			acc, _, d, err := conn.UploadBatchLedger(c.tenant, c.id, c.trigger, client, seq, snaps)
			done = d
			o.upload(len(snaps), acc)
			if d && acc > 0 {
				return rpcPublish, err
			}
			return "", err
		}); err != nil {
			return err
		}
	}
	return fetch(tr, o, conn, c, root)
}

// fetch polls the case's report until it is published.
func fetch(tr *tracer, o *ops, conn *proto.Conn, c *fcase, root int64) error {
	for i := 0; i < fetchAttempts; i++ {
		var done bool
		if err := o.call(tr, rpcFetch, c.num, root, 0, func() (string, error) {
			var err error
			c.diag, done, err = conn.FetchReport(c.tenant, c.id, c.trigger)
			return "", err
		}); err != nil {
			return err
		}
		if done {
			return nil
		}
		time.Sleep(fetchRetryPause)
	}
	return fmt.Errorf("case %d: report not published after %d fetches", c.num, fetchAttempts)
}

// verifyCases checks every report against ground truth and against a
// direct diagnosis of the case's traces, as the owning shard holds
// them. Measured cases then count as diagnoses (correct) or as failed
// operations.
func verifyCases(rc *roundCtx, t *tier, v *verifier, cases []*fcase, measured bool) {
	for _, c := range cases {
		err := c.err
		if err == nil {
			err = verifyReport(t, v, c)
		}
		if !measured {
			if err != nil {
				rc.problem("warm-up case %d: %v", c.num, err)
			}
			continue
		}
		rc.attempted++ // the case itself is an operation
		if err != nil {
			rc.failed++
			rc.problem("case %d: %v", c.num, err)
			rc.ttd = append(rc.ttd, ttdCap)
			continue
		}
		rc.diagnoses++
		rc.ttd = append(rc.ttd, c.ttd)
		rc.reports++
		rc.patterns += int64(c.diag.Stats.Patterns)
	}
}

func verifyReport(t *tier, v *verifier, c *fcase) error {
	if err := check(c.pool.prog, c.diag); err != nil {
		return err
	}
	failing, successes, ok := t.caseTraces(c.tenant, c.id)
	if !ok {
		return fmt.Errorf("%s: case %d not found on any shard", c.pool.prog.id, c.id)
	}
	want, err := v.expected(c.pool.prog, failing, successes)
	if err != nil {
		return err
	}
	if got := c.diag.Fingerprint(); got != want {
		return fmt.Errorf("%s: fleet report %.12s differs from direct diagnosis %.12s", c.pool.prog.id, got, want)
	}
	return nil
}

// runSaturate is fleet-saturate: a closed loop on two connections with
// no think time over tenants pre-registered in set-up. It is bound by
// the cold-cache diagnosis pipeline, wire ingest and WAL append.
func runSaturate(rc *roundCtx) (err error) {
	pools, t, err := fleetSetup(rc)
	if err != nil {
		return err
	}
	defer closeTier(t, &err)
	cases := newCases(rc, pools, saturateWarm, saturateCases)
	if err := parseCases(rc.tr, cases, func(c *fcase, m *ir.Module) error {
		var err error
		c.tenant, err = t.register(m, c.num)
		return err
	}); err != nil {
		return err
	}
	rc.setupDone()

	if err := closedLoop(t, cases[:saturateWarm], func(conn *proto.Conn, c *fcase) error {
		return saturateCase(rc.tr, nil, conn, c)
	}); err != nil {
		return err
	}
	o := &ops{}
	rc.beginMeasure(t.registries()...)
	err = closedLoop(t, cases[saturateWarm:], func(conn *proto.Conn, c *fcase) error {
		return saturateCase(rc.tr, o, conn, c)
	})
	rc.pauseMeasure(t.registries()...)
	rc.finishMeasure()
	if err != nil {
		return err
	}
	rc.absorb(o)
	v := newVerifier()
	verifyCases(rc, t, v, cases[:saturateWarm], false)
	verifyCases(rc, t, v, cases[saturateWarm:], true)
	return nil
}

// runRestart is fleet-restart: set-up publishes one case per program
// through the tier and stops it; the measured phase cold-restarts both
// shards (store.Open, proto.Server.Restore, serve) behind the running
// router and fetches every published report. Time to diagnosis here is
// the time from the restart to a case's report being served again.
func runRestart(rc *roundCtx) (err error) {
	pools, t, err := fleetSetup(rc)
	if err != nil {
		return err
	}
	defer closeTier(t, &err)
	cases := newCases(rc, pools, 0, restartCases)
	if err := closedLoop(t, cases, func(conn *proto.Conn, c *fcase) error {
		if err := (*ops)(nil).call(rc.tr, rpcRegister, c.num, 0, 0, func() (string, error) {
			var err error
			c.tenant, err = conn.Register(c.text)
			return "", err
		}); err != nil {
			return err
		}
		return saturateCase(rc.tr, nil, conn, c)
	}); err != nil {
		return err
	}
	published := make([]string, len(cases))
	for i, c := range cases {
		if err := c.err; err != nil {
			return fmt.Errorf("publishing case %d: %w", c.num, err)
		}
		published[i] = c.diag.Fingerprint()
	}
	if err := t.stopShards(); err != nil {
		return err
	}
	rc.setupDone()

	v := newVerifier()
	if err := restartOnce(rc, t, v, cases, published, nil, 0); err != nil {
		return err
	}
	o := &ops{}
	for k := 1; k <= restartsPerRnd; k++ {
		if err := restartOnce(rc, t, v, cases, published, o, k); err != nil {
			return err
		}
	}
	rc.absorb(o)
	return nil
}

// restartOnce cold-starts both shards, re-serves every report through
// the router and stops the shards again. With o == nil it is the
// untimed warm-up restart. Every re-served report must equal the one
// published before the restart; after the last restart each is also
// checked against a direct diagnosis of the restored traces.
func restartOnce(rc *roundCtx, t *tier, v *verifier, cases []*fcase, published []string, o *ops, k int) error {
	measured := o != nil
	for _, c := range cases {
		c.diag, c.err = nil, nil
	}
	if measured {
		rc.beginMeasure(t.router.Metrics())
	}
	root := rc.tr.begin(spanRestart, 0, 0)
	start := time.Now()
	if err := t.startShards(root); err != nil {
		rc.tr.end(root, "", 0)
		return err
	}
	err := closedLoop(t, cases, func(conn *proto.Conn, c *fcase) error {
		err := fetch(rc.tr, o, conn, c, root)
		c.ttd = time.Since(start)
		return err
	})
	rc.tr.end(root, "", 0)
	last := k == restartsPerRnd
	if measured {
		rc.pauseMeasure(t.registries()...)
		if last {
			rc.finishMeasure()
		}
	}
	if err != nil {
		return err
	}
	// Re-serving must not re-diagnose: every report comes from the WAL.
	if n := counters(t.registries()...)[core.MetricDiagnoses]; n != 0 {
		rc.problem("restart %d: %v diagnoses re-run after recovery", k, n)
	}
	for i, c := range cases {
		err := c.err
		if err == nil && c.diag.Fingerprint() != published[i] {
			err = fmt.Errorf("%s: re-served report differs from the published one", c.pool.prog.id)
		}
		if err == nil && last {
			err = verifyReport(t, v, c)
		}
		if !measured {
			if err != nil {
				rc.problem("warm-up restart case %d: %v", c.num, err)
			}
			continue
		}
		rc.attempted++
		if err != nil {
			rc.failed++
			rc.problem("restart %d case %d: %v", k, c.num, err)
			rc.ttd = append(rc.ttd, ttdCap)
			continue
		}
		rc.diagnoses++
		rc.reports++
		rc.patterns += int64(c.diag.Stats.Patterns)
		rc.ttd = append(rc.ttd, c.ttd)
	}
	return t.stopShards()
}
