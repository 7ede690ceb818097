package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// LoadConfig tunes RunLoad, the fleet-scale load generator: hundreds
// to tens of thousands of simulated agents spread across a handful of
// registered programs, driving the full on-demand collection loop
// against a fleet server or shard router.
//
// The generator is built for scale on one machine: every program's
// failing trace and triggered success snapshots are reproduced ONCE
// up front (the VM runs per program, not per agent), agents replay
// from that pool over the wire, and a concurrency bound keeps the
// open-connection count under the file-descriptor limit.
type LoadConfig struct {
	// Dial opens one connection to the server or router under load;
	// each active agent dials its own.
	Dial func() (net.Conn, error)
	// Context, when non-nil, aborts the whole run when done.
	Context context.Context
	// Agents is the total number of simulated agents (default 1000).
	Agents int
	// Programs are the module pairs the agents run; agent i drives
	// Programs[i%len(Programs)]. Each program is one tenant with one
	// diagnosis case, so len(Programs) cases spread across shards.
	Programs []Program
	// Concurrency bounds simultaneously active (connected) agents,
	// keeping file descriptors and goroutine wakeups sane (default 64).
	Concurrency int
	// BatchSize is snapshots per upload (default 2).
	BatchSize int
	// MaxAttempts bounds transport retries per operation (default 8).
	MaxAttempts int
	// OpTimeout bounds each round trip and the final report poll
	// (default 30s).
	OpTimeout time.Duration
	// PollInterval is the directive/report re-poll pace (default 2ms).
	PollInterval time.Duration
	// SeedBase offsets the deterministic per-agent randomness
	// (default 1).
	SeedBase int64
	// Stagger delays program p's agents by p*Stagger, so cases open
	// and publish in waves instead of one thundering herd — and so a
	// chaos test can catch some cases published and others
	// mid-collection at a chosen instant (default 0: no stagger).
	Stagger time.Duration
	// TailAlpha shapes the heavy-tailed per-agent failure rate: each
	// agent re-reports its program's failure 1+⌊Pareto(alpha)⌋ times
	// (idempotently joining the same case), modeling the production
	// reality that a few replicas hit a bug constantly while most see
	// it once. Smaller alpha = heavier tail (default 1.5); samples are
	// capped at 16 reports per agent.
	TailAlpha float64
}

func (c LoadConfig) agents() int {
	if c.Agents <= 0 {
		return 1000
	}
	return c.Agents
}

func (c LoadConfig) concurrency() int {
	if c.Concurrency <= 0 {
		return 64
	}
	return c.Concurrency
}

func (c LoadConfig) tailAlpha() float64 {
	if c.TailAlpha <= 0 {
		return 1.5
	}
	return c.TailAlpha
}

func (c LoadConfig) fleetConfig() Config {
	return Config{
		Dial:         c.Dial,
		Context:      c.Context,
		BatchSize:    c.BatchSize,
		MaxAttempts:  c.MaxAttempts,
		OpTimeout:    c.OpTimeout,
		PollInterval: c.PollInterval,
		SeedBase:     c.SeedBase,
	}
}

// LoadCase is one program's outcome under load.
type LoadCase struct {
	Tenant    proto.TenantID
	Case      proto.CaseID
	TriggerPC ir.PC
	// Diagnosis is the published report every agent of this program
	// eventually fetched.
	Diagnosis *core.Diagnosis
	// Uploaded and Accepted count this program's snapshots before and
	// after server-side dedup/quota.
	Uploaded, Accepted int
	// Agents is how many agents drove this program; FailureReports is
	// how many fleet-failure requests they sent in total (heavy-tailed).
	Agents, FailureReports int
}

// LoadStats is the run's headline numbers — the BENCH_fleet.json row.
type LoadStats struct {
	Agents   int
	Programs int
	// Duration is wall time from first agent start to last report.
	Duration time.Duration
	// Uploaded and Accepted count snapshots fleet-wide; AcceptedPerSec
	// is the server-side admission throughput.
	Uploaded, Accepted int
	AcceptedPerSec     float64
	// Reports counts published case reports; ReportsPerMin is the
	// diagnosis publication rate.
	Reports       int
	ReportsPerMin float64
	// DirectiveP50 and DirectiveP99 are round-trip latencies of the
	// directive-poll RPC — the request every agent spins on, and the
	// first thing that collapses when the tier is overloaded.
	DirectiveP50, DirectiveP99 time.Duration
	// Retried counts agent-side transport retries absorbed by the
	// idempotent protocol.
	Retried int
}

// LoadResult is the load generator's collective outcome.
type LoadResult struct {
	Stats LoadStats
	Cases []LoadCase
}

// loadPool is one program's precomputed wire material: the failing
// report every agent re-reports and a stock of triggered success
// snapshots agents upload from. Reproducing these once per program —
// instead of once per agent — is what lets one machine simulate
// thousands of agents: the simulated-hardware VM runs O(programs)
// times, the wire runs O(agents).
type loadPool struct {
	program   Program
	moduleTx  string
	failing   *core.RunReport
	snapshots []*pt.Snapshot
}

func buildPool(p Program, want int) (*loadPool, error) {
	if p.Fail == nil || p.OK == nil {
		return nil, fmt.Errorf("fleet: load Program needs both variants")
	}
	rep := reproduceFailure(p.Fail)
	if rep == nil {
		return nil, fmt.Errorf("fleet: could not reproduce the failure of %s", p.Fail.Name)
	}
	okClient := core.NewClient(p.OK)
	var snaps []*pt.Snapshot
	for seed := int64(1); len(snaps) < want && seed < 4096; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered && r.Snapshot != nil {
			snaps = append(snaps, r.Snapshot)
		}
	}
	if len(snaps) < want {
		return nil, fmt.Errorf("fleet: gathered %d/%d triggered snapshots for %s",
			len(snaps), want, p.Fail.Name)
	}
	return &loadPool{program: p, moduleTx: ir.Print(p.Fail), failing: rep, snapshots: snaps}, nil
}

// loadCollector accumulates fleet-wide counters and latency samples
// under one mutex; agents touch it a handful of times each, so it is
// nowhere near the contention path.
type loadCollector struct {
	mu         sync.Mutex
	directives []time.Duration
	uploaded   int
	accepted   int
	retried    int
}

func (lc *loadCollector) observeDirective(d time.Duration) {
	lc.mu.Lock()
	lc.directives = append(lc.directives, d)
	lc.mu.Unlock()
}

func (lc *loadCollector) add(uploaded, accepted, retried int) {
	lc.mu.Lock()
	lc.uploaded += uploaded
	lc.accepted += accepted
	lc.retried += retried
	lc.mu.Unlock()
}

func (lc *loadCollector) percentile(q float64) time.Duration {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if len(lc.directives) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lc.directives...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pareto draws from a Pareto(alpha) distribution with minimum 1.
func pareto(rng *rand.Rand, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Pow(u, -1/alpha)
}

// RunLoad drives cfg.Agents simulated agents against the fleet tier
// and blocks until every program's report is published and fetched by
// every one of its agents (or the context dies). Each agent registers
// its program, re-reports the failure a heavy-tailed number of times
// (joining the shared case), polls directives, uploads triggered
// snapshots from the precomputed pool until the quota disarms the
// directive, and fetches the published report.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleet: LoadConfig.Dial is required")
	}
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("fleet: LoadConfig needs at least one Program")
	}
	ctx := cfg.fleetConfig().context()

	// Phase 1: per-program pools, built once. Enough snapshots to fill
	// the default quota with headroom; agents re-upload pool entries
	// under their own (client, seq) ledger, so the pool need not scale
	// with the agent count.
	poolWant := proto.DefaultFleetQuota + 2
	pools := make([]*loadPool, len(cfg.Programs))
	for i, p := range cfg.Programs {
		pool, err := buildPool(p, poolWant)
		if err != nil {
			return nil, err
		}
		pools[i] = pool
	}

	nAgents := cfg.agents()
	aggs := make([]*caseAgg, len(pools))
	for i := range aggs {
		aggs[i] = &caseAgg{}
	}
	col := &loadCollector{}

	seedBase := cfg.SeedBase
	if seedBase == 0 {
		seedBase = 1
	}
	sem := make(chan struct{}, cfg.concurrency())
	errs := make([]error, nAgents)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nAgents; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			pi := idx % len(pools)
			// Program waves: program p's agents hold back p*Stagger, plus
			// a small deterministic per-agent jitter inside the wave.
			rng := rand.New(rand.NewSource(seedBase + int64(idx)))
			delay := time.Duration(pi) * cfg.Stagger
			if cfg.Stagger > 0 {
				delay += time.Duration(rng.Int63n(int64(cfg.Stagger)/2 + 1))
			}
			if delay > 0 {
				select {
				case <-ctx.Done():
					errs[idx] = ctx.Err()
					return
				case <-time.After(delay):
				}
			}
			// The concurrency gate bounds *connected* agents; waiting
			// agents hold no socket.
			select {
			case <-ctx.Done():
				errs[idx] = ctx.Err()
				return
			case sem <- struct{}{}:
			}
			defer func() { <-sem }()
			errs[idx] = runLoadAgent(cfg, pools[pi], idx, rng, col, func(fn func(*caseAgg)) {
				aggs[pi].mu.Lock()
				fn(aggs[pi])
				aggs[pi].mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &LoadResult{
		Stats: LoadStats{
			Agents:   nAgents,
			Programs: len(pools),
			Duration: elapsed,
		},
	}
	for i, agg := range aggs {
		res.Cases = append(res.Cases, LoadCase{
			Tenant:         agg.tenant,
			Case:           agg.caseID,
			TriggerPC:      pools[i].failing.Failure.PC,
			Diagnosis:      agg.diag,
			Uploaded:       agg.uploaded,
			Accepted:       agg.accepted,
			Agents:         agg.agents,
			FailureReports: agg.failureReports,
		})
		if agg.diag != nil {
			res.Stats.Reports++
		}
	}
	col.mu.Lock()
	res.Stats.Uploaded = col.uploaded
	res.Stats.Accepted = col.accepted
	res.Stats.Retried = col.retried
	col.mu.Unlock()
	res.Stats.DirectiveP50 = col.percentile(0.50)
	res.Stats.DirectiveP99 = col.percentile(0.99)
	if s := elapsed.Seconds(); s > 0 {
		res.Stats.AcceptedPerSec = float64(res.Stats.Accepted) / s
		res.Stats.ReportsPerMin = float64(res.Stats.Reports) / (s / 60)
	}
	return res, nil
}

// caseAgg accumulates one program's per-case outcome across all of
// its agents; guarded by its own mutex via withAgg.
type caseAgg struct {
	mu             sync.Mutex
	tenant         proto.TenantID
	caseID         proto.CaseID
	diag           *core.Diagnosis
	uploaded       int
	accepted       int
	agents         int
	failureReports int
}

// runLoadAgent is one simulated agent's lifecycle against its
// program's precomputed pool.
func runLoadAgent(cfg LoadConfig, pool *loadPool, idx int, rng *rand.Rand,
	col *loadCollector, withAgg func(func(*caseAgg))) error {
	fc := cfg.fleetConfig()
	a := &agentConn{ctx: fc.context(), dial: cfg.Dial,
		attempts: fc.maxAttempts(), opTimeout: fc.opTimeout()}
	defer a.close()
	clientID := fmt.Sprintf("load-agent-%d", idx)

	var tenant proto.TenantID
	if err := a.do(func(c *proto.Conn) error {
		var err error
		tenant, err = c.Register(pool.moduleTx)
		return err
	}); err != nil {
		return fmt.Errorf("%s: register: %w", clientID, err)
	}

	// Heavy-tailed failure rate: most agents report once, a few report
	// many times. Every report idempotently joins the same case.
	reports := int(pareto(rng, cfg.tailAlpha()))
	if reports < 1 {
		reports = 1
	}
	if reports > 16 {
		reports = 16
	}
	var (
		caseID    proto.CaseID
		directive proto.Directive
		done      bool
	)
	for r := 0; r < reports; r++ {
		if err := a.do(func(c *proto.Conn) error {
			var err error
			caseID, directive, done, err = c.ReportFleetFailure(tenant, pool.failing.Failure, pool.failing.Snapshot)
			return err
		}); err != nil {
			return fmt.Errorf("%s: report failure: %w", clientID, err)
		}
	}
	withAgg(func(g *caseAgg) {
		g.tenant, g.caseID = tenant, caseID
		g.agents++
		g.failureReports += reports
	})

	// Collection: poll directives (the latency we benchmark), upload
	// pool snapshots while our case's directive stays armed.
	batchSize := fc.batchSize()
	seq := uint64(1)
	var credited uint64                   // server ledger mark already counted into accepted
	next := rng.Intn(len(pool.snapshots)) // start point in the shared pool
	uploaded, accepted := 0, 0
	for rounds := 0; !done && rounds < 64; rounds++ {
		pollStart := time.Now()
		var ds []proto.Directive
		if err := a.do(func(c *proto.Conn) error {
			var err error
			ds, err = c.Directives(tenant)
			return err
		}); err != nil {
			return fmt.Errorf("%s: directives: %w", clientID, err)
		}
		col.observeDirective(time.Since(pollStart))
		armed := false
		for _, d := range ds {
			if d.TriggerPC == directive.TriggerPC {
				armed, directive = true, d
			}
		}
		if !armed {
			break
		}
		batch := make([]*pt.Snapshot, 0, batchSize)
		for len(batch) < batchSize {
			batch = append(batch, pool.snapshots[next%len(pool.snapshots)])
			next++
		}
		var acc int
		var ledger uint64
		if err := a.do(func(c *proto.Conn) error {
			var err error
			acc, ledger, done, err = c.UploadBatchLedger(tenant, caseID, directive.TriggerPC, clientID, seq, batch)
			return err
		}); err != nil {
			return fmt.Errorf("%s: upload: %w", clientID, err)
		}
		seq += uint64(len(batch))
		uploaded += len(batch)
		// Count against the replay-stable ledger mark when the server
		// still has one; a deduplicated retry after a lost reply says
		// Accepted 0 and would otherwise under-count (see fleet.go).
		if ledger > credited {
			accepted += int(ledger - credited)
			credited = ledger
		} else if ledger == 0 {
			accepted += acc
		}
	}

	// Fetch the published report (poll: other agents may hold the last
	// uploads, or the owning shard may be mid-failover).
	deadline := time.Now().Add(fc.opTimeout())
	ctx := fc.context()
	var diag *core.Diagnosis
	for {
		var reported bool
		if err := a.do(func(c *proto.Conn) error {
			var err error
			diag, reported, err = c.FetchReport(tenant, caseID, directive.TriggerPC)
			return err
		}); err != nil {
			return fmt.Errorf("%s: fetch report: %w", clientID, err)
		}
		if reported {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: case %d never published", clientID, caseID)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: fetch report: %w", clientID, ctx.Err())
		case <-time.After(fc.pollInterval()):
		}
	}
	withAgg(func(g *caseAgg) {
		g.diag = diag
		g.uploaded += uploaded
		g.accepted += accepted
	})
	col.add(uploaded, accepted, a.retried)
	return nil
}
