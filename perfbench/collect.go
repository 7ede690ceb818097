package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// fleet-collect's open loop. Cases arrive at a fixed rate; each brings
// a small fleet of agents, modelled on internal/fleet's load agent:
// report the failure a heavy-tailed number of times, poll directives at
// a fixed interval, upload batches that race past the quota, fetch the
// report. Every agent action is one RPC scheduled at a due time; conns
// workers, each owning one connection, run the actions in due order, so
// many logical agents share two connections.
//
// Every agent registers its deployment in set-up, as a deployment does
// when it starts: registration (which re-parses the module on both
// shards, 25–70 ms for the largest modules when agents contend) is
// timed as set-up, and a case's time to diagnosis starts at its first
// failure report. With the registrations inside the measured schedule
// they spilled into neighbouring cases' windows, and the p90 swung by
// up to 35% between runs as the machine's speed drifted.
//
// The poll interval, the report cap and the Pareto shape are
// internal/fleet's defaults (LoadConfig.PollInterval, the cap in
// runLoadAgent, LoadConfig.TailAlpha); they are not exported, so they
// are repeated here.
const (
	collectRate    = 10.0                 // case arrivals per second
	collectWarm    = 6                    // untimed cases before the measured ones
	collectCases   = 58                   // measured cases per round: one per program
	agentsPerCase  = 3                    // not the model's: see README.md, fleet-collect
	agentStagger   = time.Millisecond     // between a case's agents
	pollInterval   = 2 * time.Millisecond // directive and report polls
	maxReports     = 16                   // cap on one agent's failure reports
	tailAlpha      = 1.5                  // Pareto shape of the report counts
	collectTimeout = 30 * time.Second     // a case not published by then has failed
)

// agent states, in the order an agent moves through them.
const (
	stReport = iota
	stPoll
	stUpload
	stFetch
)

// plannedAgent is one agent's seeded plan: when it starts (after its
// case's arrival), how many failure reports it sends, and where in the
// pool its uploads start.
type plannedAgent struct {
	offset  time.Duration
	reports int
	start   int
}

// plannedCase is one case of the open-loop schedule.
type plannedCase struct {
	at     time.Duration // arrival, relative to the schedule's start
	agents []plannedAgent
}

// planCollect draws the schedule: arrivals at a fixed rate, and each
// agent's failure-report count from a Pareto tail, as internal/fleet's
// load generator does. The counts are stratified — the Pareto quantiles
// at evenly spaced points, dealt to agents in seeded order — so every
// plan of n cases sends the same heavy-tailed mix of reports and only
// who sends them varies with the seed.
func planCollect(rng *rand.Rand, n, poolLen int) []plannedCase {
	counts := make([]int, n*agentsPerCase)
	for k := range counts {
		u := (float64(k) + 0.5) / float64(len(counts))
		counts[k] = int(math.Pow(u, -1/tailAlpha))
		if counts[k] > maxReports {
			counts[k] = maxReports
		}
	}
	rng.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	plan := make([]plannedCase, n)
	gap := time.Duration(float64(time.Second) / collectRate)
	for i := range plan {
		pc := plannedCase{at: time.Duration(i) * gap}
		for j := 0; j < agentsPerCase; j++ {
			pc.agents = append(pc.agents, plannedAgent{
				offset:  time.Duration(j) * agentStagger,
				reports: counts[i*agentsPerCase+j],
				start:   rng.Intn(poolLen),
			})
		}
		plan[i] = pc
	}
	return plan
}

// agent is one logical client: its plan plus what the tier told it.
type agent struct {
	c       *fcase
	cc      *collectCase
	idx     int64
	client  string
	plan    plannedAgent
	state   int
	reports int
	seq     uint64
	next    int
	// What the tier told this agent.
	tenant  proto.TenantID
	id      proto.CaseID
	trigger ir.PC
}

// collectCase is the case-level outcome shared by its agents.
type collectCase struct {
	mu      sync.Mutex
	due     time.Time
	fetched bool
}

type action struct {
	due time.Time
	seq uint64
	a   *agent
}

type actionHeap []action

func (h actionHeap) Len() int { return len(h) }
func (h actionHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h actionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *actionHeap) Push(x any)   { *h = append(*h, x.(action)) }
func (h *actionHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// scheduler hands due agent actions to the workers.
type scheduler struct {
	mu   sync.Mutex
	h    actionHeap
	seq  uint64
	live int
	wake chan struct{}
	done chan struct{}
}

func (s *scheduler) push(a *agent, due time.Time) {
	s.mu.Lock()
	s.seq++
	heap.Push(&s.h, action{due: due, seq: s.seq, a: a})
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pop blocks until the earliest action is due, or every agent is done.
func (s *scheduler) pop() (action, bool) {
	for {
		s.mu.Lock()
		if s.live == 0 {
			s.mu.Unlock()
			return action{}, false
		}
		wait := time.Hour
		if len(s.h) > 0 {
			if wait = time.Until(s.h[0].due); wait <= 0 {
				a := heap.Pop(&s.h).(action)
				s.mu.Unlock()
				return a, true
			}
		}
		s.mu.Unlock()
		timer := time.NewTimer(wait)
		select {
		case <-s.wake:
		case <-s.done:
		case <-timer.C:
		}
		timer.Stop()
	}
}

func (s *scheduler) finish() {
	s.mu.Lock()
	s.live--
	if s.live == 0 {
		close(s.done)
	}
	s.mu.Unlock()
}

// runSchedule drives the cases' agents until every agent has fetched
// its report or failed. It returns how late each action ran (ms).
func runSchedule(tr *tracer, o *ops, t *tier, cases []*fcase, plan []plannedCase) ([]float64, error) {
	s := &scheduler{wake: make(chan struct{}, 1), done: make(chan struct{})}
	var agents []*agent
	for i, c := range cases {
		cc := &collectCase{}
		for j, pa := range plan[i].agents {
			agents = append(agents, &agent{c: c, cc: cc, idx: int64(j),
				client: fmt.Sprintf("agent-%d-%d", c.num, j), plan: pa, reports: pa.reports,
				seq: 1, next: pa.start, tenant: c.tenant})
		}
	}
	s.live = len(agents)
	start := time.Now().Add(time.Millisecond)
	for _, a := range agents {
		a.cc.due = start.Add(plan[a.c.num-cases[0].num].at - plan[0].at)
		s.push(a, a.cc.due.Add(a.plan.offset))
	}
	lates := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var conn *proto.Conn
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for {
				act, ok := s.pop()
				if !ok {
					return
				}
				lates[w] = append(lates[w], ms(time.Since(act.due)))
				if conn == nil {
					var err error
					if conn, err = t.dial(); err != nil {
						errs[w] = err
						act.a.fail(err)
						s.finish()
						continue
					}
				}
				next, done, err := act.a.step(tr, o, conn)
				if err != nil {
					act.a.fail(err)
					conn.Close()
					conn = nil
				}
				if done || err != nil {
					s.finish()
				} else {
					s.push(act.a, next)
				}
			}
		}(w)
	}
	wg.Wait()
	var late []float64
	for _, l := range lates {
		late = append(late, l...)
	}
	for _, err := range errs {
		if err != nil {
			return late, err
		}
	}
	return late, nil
}

// fail records the agent's error on its case (the first one wins).
func (a *agent) fail(err error) {
	a.cc.mu.Lock()
	if a.c.err == nil {
		a.c.err = err
	}
	a.cc.mu.Unlock()
}

// step runs the agent's next RPC and returns when its following action
// is due, or done once the agent has fetched the report.
func (a *agent) step(tr *tracer, o *ops, conn *proto.Conn) (time.Time, bool, error) {
	c := a.c
	if time.Since(a.cc.due) > collectTimeout {
		return time.Time{}, true, fmt.Errorf("case %d: not published within %s", c.num, collectTimeout)
	}
	switch a.state {
	case stReport:
		err := o.call(tr, rpcFailure, c.num, 0, a.idx, func() (string, error) {
			id, d, _, err := conn.ReportFleetFailure(a.tenant, c.pool.failing.Failure, c.pool.failing.Snapshot)
			a.id, a.trigger = id, d.TriggerPC
			return "", err
		})
		if a.reports--; a.reports > 0 {
			return time.Now(), false, err
		}
		a.state = stPoll
		return time.Now().Add(pollInterval), false, err
	case stPoll:
		armed := false
		err := o.call(tr, rpcDirectives, c.num, 0, a.idx, func() (string, error) {
			ds, err := conn.Directives(a.tenant)
			for _, d := range ds {
				armed = armed || d.Case == a.id
			}
			return "", err
		})
		o.poll(armed)
		if armed {
			a.state = stUpload
		} else {
			a.state = stFetch
		}
		return time.Now(), false, err
	case stUpload:
		snaps := c.pool.snapshots
		batch := make([]*pt.Snapshot, batchSize)
		for k := range batch {
			batch[k] = snaps[(a.next+k)%len(snaps)]
		}
		var done bool
		err := o.call(tr, rpcUpload, c.num, 0, a.idx, func() (string, error) {
			acc, _, d, err := conn.UploadBatchLedger(a.tenant, a.id, a.trigger, a.client, a.seq, batch)
			done = d
			o.upload(len(batch), acc)
			if d && acc > 0 {
				return rpcPublish, err
			}
			return "", err
		})
		a.seq += uint64(len(batch))
		a.next += len(batch)
		if done {
			a.state = stFetch
			return time.Now(), false, err
		}
		a.state = stPoll
		return time.Now().Add(pollInterval), false, err
	default: // stFetch
		var done bool
		err := o.call(tr, rpcFetch, c.num, 0, a.idx, func() (string, error) {
			d, ok, err := conn.FetchReport(a.tenant, a.id, a.trigger)
			done = ok
			if ok {
				a.cc.mu.Lock()
				if !a.cc.fetched {
					a.cc.fetched = true
					c.diag, c.tenant, c.id, c.trigger = d, a.tenant, a.id, a.trigger
					c.ttd = time.Since(a.cc.due)
				}
				a.cc.mu.Unlock()
			}
			return "", err
		})
		if done || err != nil {
			return time.Time{}, true, err
		}
		return time.Now().Add(pollInterval), false, nil
	}
}

// runCollect is fleet-collect: the open loop above at collectRate case
// arrivals per second. Registration, directive fan-out, dedup and
// polling dominate; each case is diagnosed once.
func runCollect(rc *roundCtx) (err error) {
	pools, t, err := fleetSetup(rc)
	if err != nil {
		return err
	}
	defer closeTier(t, &err)
	cases := newCases(rc, pools, collectWarm, collectCases)
	// Each agent registers its deployment through the router.
	if err := closedLoop(t, cases, func(conn *proto.Conn, c *fcase) error {
		for j := 0; j < agentsPerCase; j++ {
			if err := (*ops)(nil).call(rc.tr, rpcRegister, c.num, 0, int64(j), func() (string, error) {
				var err error
				c.tenant, err = conn.Register(c.text)
				return "", err
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, c := range cases {
		if c.err != nil {
			return fmt.Errorf("registering case %d: %w", c.num, c.err)
		}
	}
	warmPlan := planCollect(rc.rng, collectWarm, poolSize)
	plan := planCollect(rc.rng, collectCases, poolSize)
	rc.setupDone()

	if _, err := runSchedule(rc.tr, nil, t, cases[:collectWarm], warmPlan); err != nil {
		return err
	}
	o := &ops{}
	rc.beginMeasure(t.registries()...)
	late, err := runSchedule(rc.tr, o, t, cases[collectWarm:], plan)
	rc.pauseMeasure(t.registries()...)
	rc.finishMeasure()
	if err != nil {
		return err
	}
	rc.absorb(o)
	rc.late = append(rc.late, late...)
	v := newVerifier()
	verifyCases(rc, t, v, cases[:collectWarm], false)
	verifyCases(rc, t, v, cases[collectWarm:], true)
	return nil
}
