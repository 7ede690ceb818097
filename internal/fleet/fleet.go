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
// faults through proto.RetryClient's plain reconnect-and-retry loop.
package fleet

import (
	"context"
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

// retryBaseDelay is an agent's first reconnect backoff; it doubles per
// attempt. Agents retry on a tighter schedule than RetryConfig's 10 ms
// default because a simulated fleet's server is a loopback away.
const retryBaseDelay = 5 * time.Millisecond

// Run drives a simulated fleet against an analysis server until the
// failure's case is diagnosed, and returns the published report.
//
// Each agent independently registers the program (idempotent),
// reports the failure (joining the shared case), then runs the OK
// variant on its own VM with the directive's trigger armed and
// batch-uploads triggered snapshots until the server publishes.
func Run(p Program, cfg Config) (*Result, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleet: Config.Dial is required")
	}
	m, err := prepare(p)
	if err != nil {
		return nil, err
	}
	n := cfg.clients()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			results[idx], errs[idx] = runAgent(cfg, fmt.Sprintf("agent-%d", idx), m, 1,
				vmSuccesses(p.OK, cfg.seedBase()+int64(idx)*100_000))
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

// maxRuns bounds how many OK-variant executions one Run agent makes
// looking for triggered snapshots.
const maxRuns = 256

// vmSuccesses is a Run agent's snapshot source: it executes ok on the
// agent's own VM, seeds counting up from seed+1, with the trigger
// armed at pc, and returns the next triggered success snapshot, or nil
// once maxRuns executions are spent.
func vmSuccesses(ok *ir.Module, seed int64) func(pc ir.PC) *pt.Snapshot {
	client := core.NewClient(ok)
	runs := 0
	return func(pc ir.PC) *pt.Snapshot {
		for runs < maxRuns {
			runs++
			seed++
			if rep := client.Run(seed, pc); !rep.Failed() && rep.Triggered && rep.Snapshot != nil {
				return rep.Snapshot
			}
		}
		return nil
	}
}

// material is what every agent of one program reports: the failing
// build's IR text, which registers the tenant, and the failing run.
type material struct {
	text    string
	failing *core.RunReport
}

// prepare reproduces p's failure the way every replica would:
// deterministic seeds from 1 up, so the whole fleet reports the same
// failure PC and joins one case. One reproduction therefore stands in
// for every agent's.
func prepare(p Program) (*material, error) {
	if p.Fail == nil || p.OK == nil {
		return nil, fmt.Errorf("fleet: Program needs both variants")
	}
	client := core.NewClient(p.Fail)
	for seed := int64(1); seed <= 64; seed++ {
		if rep := client.Run(seed, ir.NoPC); rep.Failed() {
			return &material{text: ir.Print(p.Fail), failing: rep}, nil
		}
	}
	return nil, fmt.Errorf("fleet: could not reproduce the failure of %s", p.Fail.Name)
}

// runAgent is the agent lifecycle (Figure 2, §4.5): register m's
// program, report its failure reports times (every report idempotently
// joins the same case), upload batches of triggered successes while the
// case's directive stays armed, and fetch the published report. id
// names the agent on the wire; with the per-case sequence number it
// makes batch uploads idempotent. successes returns the agent's next
// triggered success snapshot for a trigger PC, or nil once its budget
// is spent: Run and RunLoad differ only in the source they pass.
func runAgent(cfg Config, id string, m *material, reports int, successes func(pc ir.PC) *pt.Snapshot) (*Result, error) {
	ctx := cfg.context()
	a := proto.NewRetryClient(cfg.Dial, proto.RetryConfig{MaxAttempts: cfg.MaxAttempts,
		BaseDelay: retryBaseDelay, OpTimeout: cfg.opTimeout()})
	defer a.Close()

	var tenant proto.TenantID
	if err := a.Do(ctx, func(c *proto.Conn) error {
		var err error
		tenant, err = c.Register(m.text)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: register: %w", id, err)
	}

	var (
		caseID    proto.CaseID
		directive proto.Directive
		done      bool
	)
	for r := 0; r < reports; r++ {
		if err := a.Do(ctx, func(c *proto.Conn) error {
			var err error
			caseID, directive, done, err = c.ReportFleetFailure(tenant, m.failing.Failure, m.failing.Snapshot)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: report failure: %w", id, err)
		}
	}

	res := &Result{Tenant: tenant, Case: caseID, Failure: m.failing.Failure}
	size := cfg.batchSize()
	batch := make([]*pt.Snapshot, 0, size)
	var (
		seq      uint64 = 1 // sequence number of batch[0]
		credited uint64     // server ledger mark already counted into res.Accepted
	)
	for !done {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: collection: %w", id, err)
		}
		// Another agent may have filled the quota: when the directive is
		// gone, stop producing and go fetch the report.
		var ds []proto.Directive
		if err := a.Do(ctx, func(c *proto.Conn) error {
			var err error
			ds, err = c.Directives(tenant)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: directives: %w", id, err)
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
		batch = batch[:0]
		for len(batch) < size {
			s := successes(directive.TriggerPC)
			if s == nil {
				break
			}
			batch = append(batch, s)
		}
		if len(batch) == 0 {
			break
		}
		var (
			accepted int
			ledger   uint64
		)
		if err := a.Do(ctx, func(c *proto.Conn) error {
			var err error
			accepted, ledger, done, err = c.UploadBatchLedger(tenant, caseID, directive.TriggerPC, id, seq, batch)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: upload: %w", id, err)
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
		if len(batch) < size {
			break // the snapshot budget is spent
		}
	}

	// Fetch the published report, polling while the case is still
	// collecting (other agents may hold the last uploads, or the owning
	// shard may be mid-failover). The poll loop is doubly bounded: by
	// the operation timeout and by the run's context, whichever ends
	// first.
	deadline := time.Now().Add(cfg.opTimeout())
	for {
		var (
			diag     *core.Diagnosis
			reported bool
		)
		if err := a.Do(ctx, func(c *proto.Conn) error {
			var err error
			diag, reported, err = c.FetchReport(tenant, caseID, directive.TriggerPC)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: fetch report: %w", id, err)
		}
		if reported {
			res.Diagnosis = diag
			return res, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s: case %d never published (quota starved?)", id, caseID)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: fetch report: %w", id, ctx.Err())
		case <-time.After(cfg.pollInterval()):
		}
	}
}
