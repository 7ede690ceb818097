package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// LoadConfig tunes RunLoad: hundreds to thousands of simulated agents
// spread across a handful of registered programs, driving the full
// on-demand collection loop against a fleet server or shard router.
//
// RunLoad is built for scale on one machine: every program's failing
// trace and triggered success snapshots are reproduced ONCE up front
// (the VM runs per program, not per agent), agents replay from that
// pool over the wire, and a concurrency bound keeps the
// open-connection count under the file-descriptor limit.
type LoadConfig struct {
	// Dial opens one connection to the server or router under load;
	// each active agent dials its own.
	Dial func() (net.Conn, error)
	// Agents is the total number of simulated agents (default 1000).
	Agents int
	// Programs are the module pairs the agents run; agent i drives
	// Programs[i%len(Programs)]. Each program is one tenant with one
	// diagnosis case, so len(Programs) cases spread across shards.
	Programs []Program
	// Concurrency bounds simultaneously active (connected) agents,
	// keeping file descriptors and goroutine wakeups sane (default 64).
	Concurrency int
	// MaxAttempts bounds transport retries per operation (default 8).
	MaxAttempts int
	// OpTimeout bounds each round trip and the final report poll
	// (default 30s).
	OpTimeout time.Duration
	// PollInterval is the directive/report re-poll pace (default 2ms).
	PollInterval time.Duration
	// Stagger delays program p's agents by p*Stagger, so cases open
	// and publish in waves instead of one thundering herd — and so a
	// chaos test can catch some cases published and others
	// mid-collection at a chosen instant (default 0: no stagger).
	Stagger time.Duration
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

// The load agents' fixed shape.
const (
	// tailAlpha shapes the heavy-tailed per-agent failure rate: each
	// agent reports its program's failure ⌊Pareto(tailAlpha)⌋ ≥ 1 times,
	// capped at maxReports, modeling the production reality that a
	// few replicas hit a bug constantly while most see it once.
	tailAlpha  = 1.5
	maxReports = 16
	// loadBatches bounds each load agent's uploads, in batches.
	loadBatches = 64
)

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

// LoadStats is the run's fleet-wide totals.
type LoadStats struct {
	Agents   int
	Programs int
	// Uploaded and Accepted count snapshots fleet-wide.
	Uploaded, Accepted int
	// Reports counts published case reports.
	Reports int
}

// LoadResult is the load run's collective outcome.
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
	m         *material
	snapshots []*pt.Snapshot
}

func buildPool(p Program, want int) (*loadPool, error) {
	m, err := prepare(p)
	if err != nil {
		return nil, err
	}
	okClient := core.NewClient(p.OK)
	var snaps []*pt.Snapshot
	for seed := int64(1); len(snaps) < want && seed < 4096; seed++ {
		r := okClient.Run(seed, m.failing.Failure.PC)
		if !r.Failed() && r.Triggered && r.Snapshot != nil {
			snaps = append(snaps, r.Snapshot)
		}
	}
	if len(snaps) < want {
		return nil, fmt.Errorf("fleet: gathered %d/%d triggered snapshots for %s",
			len(snaps), want, p.Fail.Name)
	}
	return &loadPool{m: m, snapshots: snaps}, nil
}

// successes is a load agent's snapshot source: the pool replayed from
// start, wrapping around, for at most n snapshots. Agents re-upload
// pool entries under their own (client, seq) ledger, so the pool need
// not scale with the agent count.
func (p *loadPool) successes(start, n int) func(ir.PC) *pt.Snapshot {
	return func(ir.PC) *pt.Snapshot {
		if n == 0 {
			return nil
		}
		n--
		s := p.snapshots[start%len(p.snapshots)]
		start++
		return s
	}
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
// every one of its agents. Each agent runs the same lifecycle as Run's,
// but re-reports the failure a heavy-tailed number of times and
// uploads from its program's precomputed pool.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleet: LoadConfig.Dial is required")
	}
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("fleet: LoadConfig needs at least one Program")
	}
	fc := Config{Dial: cfg.Dial, MaxAttempts: cfg.MaxAttempts,
		OpTimeout: cfg.OpTimeout, PollInterval: cfg.PollInterval}

	// Per-program pools, built once, with enough snapshots to fill the
	// default quota with headroom.
	pools := make([]*loadPool, len(cfg.Programs))
	cases := make([]LoadCase, len(cfg.Programs))
	for i, p := range cfg.Programs {
		pool, err := buildPool(p, proto.DefaultFleetQuota+2)
		if err != nil {
			return nil, err
		}
		pools[i] = pool
		cases[i].TriggerPC = pool.m.failing.Failure.PC
	}

	nAgents := cfg.agents()
	sem := make(chan struct{}, cfg.concurrency())
	errs := make([]error, nAgents)
	var (
		mu sync.Mutex // guards cases
		wg sync.WaitGroup
	)
	for i := 0; i < nAgents; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			pi := idx % len(pools)
			// Program waves: program p's agents hold back p*Stagger, plus
			// a small deterministic per-agent jitter inside the wave.
			rng := rand.New(rand.NewSource(1 + int64(idx)))
			delay := time.Duration(pi) * cfg.Stagger
			if cfg.Stagger > 0 {
				delay += time.Duration(rng.Int63n(int64(cfg.Stagger)/2 + 1))
			}
			time.Sleep(delay)
			// The concurrency gate bounds *connected* agents; waiting
			// agents hold no socket.
			sem <- struct{}{}
			defer func() { <-sem }()

			// Heavy-tailed failure rate: most agents report once, a few
			// report many times.
			reports := min(int(pareto(rng, tailAlpha)), maxReports)
			pool := pools[pi]
			r, err := runAgent(fc, fmt.Sprintf("agent-%d", idx), pool.m, reports,
				pool.successes(rng.Intn(len(pool.snapshots)), loadBatches*fc.batchSize()))
			if err != nil {
				errs[idx] = err
				return
			}
			mu.Lock()
			c := &cases[pi]
			c.Tenant, c.Case, c.Diagnosis = r.Tenant, r.Case, r.Diagnosis
			c.Uploaded += r.Uploaded
			c.Accepted += r.Accepted
			c.Agents++
			c.FailureReports += reports
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &LoadResult{Stats: LoadStats{Agents: nAgents, Programs: len(pools)}, Cases: cases}
	for _, c := range cases {
		res.Stats.Uploaded += c.Uploaded
		res.Stats.Accepted += c.Accepted
		if c.Diagnosis != nil {
			res.Stats.Reports++
		}
	}
	return res, nil
}
