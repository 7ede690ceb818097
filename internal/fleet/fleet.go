// Package fleet simulates the production side of the deployed system
// at fleet scale (Figure 2, §4.5): many client agents run the same
// registered program under the always-on tracer, report failures to
// the central analysis server, receive on-demand collection directives
// ("arm a trace trigger at PC X"), and batch-upload triggered success
// snapshots until the server has its 10× quota and publishes the
// diagnosis.
//
// Every agent action is idempotent on the wire — registration is
// keyed by module fingerprint, failure reports join the existing case
// for their PC, and batch uploads carry (client id, sequence number)
// so replays are deduplicated — which lets agents survive transport
// faults with a plain reconnect-and-retry loop, no session replay
// needed.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// Program is the pair of module variants a fleet runs: Fail is the
// deployed build whose interleaving loses the race (and the module the
// server diagnoses); OK is the build whose executions succeed and
// produce the triggered success traces. The two must be layout
// identical, like the corpus variants.
type Program struct {
	Fail *ir.Module
	OK   *ir.Module
}

// Config tunes a simulated fleet.
type Config struct {
	// Dial opens one connection to the analysis server; each agent
	// dials its own.
	Dial func() (net.Conn, error)
	// Context, when non-nil, bounds the whole run: agents abandon
	// retries, collection loops and report polling as soon as it is
	// done, and Run returns the context's error. nil means
	// context.Background() — only OpTimeout bounds the run.
	Context context.Context
	// Clients is how many agents run (default 4).
	Clients int
	// BatchSize is how many triggered snapshots an agent buffers
	// before uploading (default 2).
	BatchSize int
	// SeedBase offsets every agent's scheduling seeds, so distinct
	// fleets exercise distinct interleavings (default 1).
	SeedBase int64
	// MaxAttempts bounds transport retries per operation (default 8).
	MaxAttempts int
	// MaxRuns bounds each agent's successful-execution budget
	// (default 256).
	MaxRuns int
	// OpTimeout bounds each round trip (default 30s).
	OpTimeout time.Duration
	// PollInterval is how often agents re-poll directives and pending
	// reports (default 2ms).
	PollInterval time.Duration
}

func (c Config) clients() int {
	if c.Clients <= 0 {
		return 4
	}
	return c.Clients
}

func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return 2
	}
	return c.BatchSize
}

func (c Config) seedBase() int64 {
	if c.SeedBase == 0 {
		return 1
	}
	return c.SeedBase
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 8
	}
	return c.MaxAttempts
}

func (c Config) maxRuns() int {
	if c.MaxRuns <= 0 {
		return 256
	}
	return c.MaxRuns
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout <= 0 {
		return 30 * time.Second
	}
	return c.OpTimeout
}

func (c Config) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 2 * time.Millisecond
	}
	return c.PollInterval
}

func (c Config) context() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// Result is the fleet's collective outcome.
type Result struct {
	Tenant proto.TenantID
	Case   proto.CaseID
	// Diagnosis is the server-published report for the case.
	Diagnosis *core.Diagnosis
	// Failure is the failure the fleet reported.
	Failure *core.FailureReport
	// Uploaded counts snapshots the agents uploaded (before server
	// dedupe), Accepted how many the server admitted toward the quota.
	Uploaded, Accepted int
}

// agentConn is one agent's reconnecting connection: transport faults
// drop the connection and the operation is retried on a fresh dial,
// which is safe because every fleet operation is idempotent. Server
// "error" replies are deterministic rejections and are returned.
type agentConn struct {
	ctx       context.Context
	dial      func() (net.Conn, error)
	attempts  int
	opTimeout time.Duration
	conn      *proto.Conn
	// retried counts attempts beyond the first across all operations —
	// the transport retries the idempotent protocol absorbed.
	retried int
}

func (a *agentConn) close() {
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}

func (a *agentConn) do(fn func(c *proto.Conn) error) error {
	var lastErr error
	for i := 0; i < a.attempts; i++ {
		if err := a.ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("fleet: %w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		if i > 0 {
			a.retried++
			select {
			case <-a.ctx.Done():
				return a.ctx.Err()
			case <-time.After(time.Duration(i) * 5 * time.Millisecond):
			}
		}
		if a.conn == nil {
			nc, err := a.dial()
			if err != nil {
				lastErr = err
				continue
			}
			a.conn = proto.NewConn(nc)
		}
		c := a.conn
		c.SetDeadline(time.Now().Add(a.opTimeout))
		err := fn(c)
		c.SetDeadline(time.Time{})
		if err == nil {
			return nil
		}
		var se *proto.ServerError
		if errors.As(err, &se) {
			return err
		}
		lastErr = err
		a.close()
	}
	return fmt.Errorf("fleet: giving up after %d attempts: %w", a.attempts, lastErr)
}

// Run drives a simulated fleet against an analysis server until the
// failure's case is diagnosed, and returns the published report.
//
// Each agent independently registers the program (idempotent),
// reproduces the failure locally, reports it (joining the shared
// case), then runs the OK variant with the directive's trigger armed
// and batch-uploads triggered snapshots until the server publishes.
func Run(p Program, cfg Config) (*Result, error) {
	if p.Fail == nil || p.OK == nil {
		return nil, fmt.Errorf("fleet: Program needs both variants")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleet: Config.Dial is required")
	}
	n := cfg.clients()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			results[idx], errs[idx] = runAgent(p, cfg, idx)
		}(i)
	}
	wg.Wait()
	var res *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if res == nil {
			res = &Result{Tenant: r.Tenant, Case: r.Case,
				Diagnosis: r.Diagnosis, Failure: r.Failure}
		}
		res.Uploaded += r.Uploaded
		res.Accepted += r.Accepted
	}
	if res == nil {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("fleet: no agent produced a result")
	}
	return res, nil
}

// reproduceFailure finds the failing interleaving the way every
// replica would: deterministic seeds from 1 up, so the whole fleet
// reports the same failure PC and joins one case.
func reproduceFailure(mod *ir.Module) *core.RunReport {
	client := core.NewClient(mod)
	for seed := int64(1); seed <= 64; seed++ {
		if rep := client.Run(seed, ir.NoPC); rep.Failed() {
			return rep
		}
	}
	return nil
}

func runAgent(p Program, cfg Config, idx int) (*Result, error) {
	ctx := cfg.context()
	a := &agentConn{ctx: ctx, dial: cfg.Dial, attempts: cfg.maxAttempts(),
		opTimeout: cfg.opTimeout()}
	defer a.close()
	clientID := fmt.Sprintf("agent-%d", idx)

	var tenant proto.TenantID
	if err := a.do(func(c *proto.Conn) error {
		var err error
		tenant, err = c.Register(ir.Print(p.Fail))
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: register: %w", clientID, err)
	}

	rep := reproduceFailure(p.Fail)
	if rep == nil {
		return nil, fmt.Errorf("%s: could not reproduce the failure", clientID)
	}
	var (
		caseID    proto.CaseID
		directive proto.Directive
		done      bool
	)
	if err := a.do(func(c *proto.Conn) error {
		var err error
		caseID, directive, done, err = c.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: report failure: %w", clientID, err)
	}

	res := &Result{Tenant: tenant, Case: caseID, Failure: rep.Failure}
	okClient := core.NewClient(p.OK)
	var (
		batch    []*pt.Snapshot
		seq      uint64 = 1 // sequence number of batch[0]
		credited uint64     // server ledger mark already counted into res.Accepted
	)
	upload := func() error {
		if len(batch) == 0 {
			return nil
		}
		var accepted int
		var ledger uint64
		err := a.do(func(c *proto.Conn) error {
			var err error
			accepted, ledger, done, err = c.UploadBatchLedger(tenant, caseID, directive.TriggerPC, clientID, seq, batch)
			return err
		})
		if err != nil {
			return err
		}
		res.Uploaded += len(batch)
		// A reply can be lost after the server admitted the batch; the
		// transport retry is then deduplicated server-side and reports
		// Accepted 0, which would under-count. The ledger mark is
		// replay-stable, so count against it whenever the server still
		// has one and trust Accepted only when the ledger is gone
		// (case closed and pruned).
		if ledger > credited {
			res.Accepted += int(ledger - credited)
			credited = ledger
		} else if ledger == 0 {
			res.Accepted += accepted
		}
		seq += uint64(len(batch))
		batch = batch[:0]
		return nil
	}
	seed := cfg.seedBase() + int64(idx)*100_000
	for runs := 0; !done && runs < cfg.maxRuns(); runs++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: collection: %w", clientID, err)
		}
		seed++
		okRep := okClient.Run(seed, directive.TriggerPC)
		if okRep.Failed() || !okRep.Triggered || okRep.Snapshot == nil {
			continue
		}
		batch = append(batch, okRep.Snapshot)
		if len(batch) >= cfg.batchSize() {
			if err := upload(); err != nil {
				return nil, fmt.Errorf("%s: upload: %w", clientID, err)
			}
		}
		if done {
			break
		}
		// Another agent may have filled the quota: when the directive is
		// gone, stop producing and go fetch the report.
		var ds []proto.Directive
		if err := a.do(func(c *proto.Conn) error {
			var err error
			ds, err = c.Directives(tenant)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: directives: %w", clientID, err)
		}
		armed := false
		for _, d := range ds {
			// Match on the trigger PC, not the case id: in a sharded
			// deployment the directive listing is a fan-out merge, and
			// the PC is the routing key that is stable across shards.
			if d.TriggerPC == directive.TriggerPC {
				armed, directive = true, d
			}
		}
		if !armed {
			break
		}
	}
	if !done {
		// Flush the tail batch; harmless if the case just closed (the
		// server ignores excess) and necessary if quota still wants it.
		if err := upload(); err != nil {
			return nil, fmt.Errorf("%s: upload: %w", clientID, err)
		}
	}

	// Fetch the published report, polling while the case is still
	// collecting (other agents may hold the last uploads). The poll
	// loop is doubly bounded: by the operation timeout and by the
	// run's context, whichever ends first.
	deadline := time.Now().Add(cfg.opTimeout())
	for {
		var (
			diag     *core.Diagnosis
			reported bool
		)
		if err := a.do(func(c *proto.Conn) error {
			var err error
			diag, reported, err = c.FetchReport(tenant, caseID, directive.TriggerPC)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: fetch report: %w", clientID, err)
		}
		if reported {
			res.Diagnosis = diag
			return res, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: case %d never published (quota starved?)", clientID, caseID)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: fetch report: %w", clientID, ctx.Err())
		case <-time.After(cfg.pollInterval()):
		}
	}
}
