// Package core orchestrates Lazy Diagnosis — the paper's primary
// contribution (§4, Figure 2).
//
// A Client runs a program under the simulated hardware tracer and
// produces failure reports with trace snapshots (steps 1 and 8). A
// Server consumes them and runs the analysis pipeline: trace
// processing (2–3), hybrid points-to analysis (4), type-based ranking
// (5), bug-pattern computation (6) and statistical diagnosis (7). A
// Session wires the two together the way the deployed system would:
// one failing execution seeds the analysis, then traces from
// successful executions — captured at the failure PC — sharpen it.
package core

import (
	"fmt"
	"sync"
	"time"

	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/pattern"
	"snorlax/internal/pointsto"
	"snorlax/internal/pt"
	"snorlax/internal/ranking"
	"snorlax/internal/statdiag"
	"snorlax/internal/traceproc"
	"snorlax/internal/vm"
)

// FailureReport is the client-side failure description shipped to the
// server — the crash-report analogue (OS error tracker + trace dump).
// It is self-contained and serializable.
type FailureReport struct {
	Deadlock     bool
	PC           ir.PC
	Tid          int
	Time         int64
	Msg          string
	DeadlockPCs  []ir.PC
	DeadlockTids []int
}

// RunReport is the outcome of one traced client execution.
type RunReport struct {
	// Failure is nil for successful executions.
	Failure *FailureReport
	// Snapshot holds the per-thread trace rings captured at the
	// failure (failing runs) or at the trigger PC (successful runs).
	Snapshot *pt.Snapshot
	// Result is the raw VM result (virtual time, steps, …).
	Result *vm.Result
	// Triggered reports whether an armed trigger fired.
	Triggered bool
}

// Failed reports whether the execution failed.
func (r *RunReport) Failed() bool { return r.Failure != nil }

// Client runs executions of one module under the trace driver.
type Client struct {
	Mod *ir.Module
	// PT configures the simulated tracer (64 KB rings by default).
	PT pt.Config
	// VM configures execution; Seed is overridden per run.
	VM vm.Config
}

// NewClient returns a Client with default configurations.
func NewClient(mod *ir.Module) *Client { return &Client{Mod: mod} }

// Run executes once with the given seed. trigger, when not NoPC, arms
// a one-shot trace snapshot at that PC (step 8: collecting traces
// from successful executions at a previous failure's location).
func (c *Client) Run(seed int64, trigger ir.PC) *RunReport {
	drv := pt.NewDriver(c.PT)
	drv.TriggerPC = trigger
	cfg := c.VM
	cfg.Seed = seed
	cfg.Sink = drv
	cfg.Hook = drv
	res := vm.Run(c.Mod, cfg)

	rep := &RunReport{Result: res, Triggered: drv.Triggered()}
	if res.Failed() {
		f := res.Failure
		rep.Failure = &FailureReport{
			Deadlock:     f.Kind == vm.FailDeadlock,
			PC:           f.PC,
			Tid:          f.Thread,
			Time:         f.Time,
			Msg:          f.Msg,
			DeadlockPCs:  f.DeadlockPCs,
			DeadlockTids: f.DeadlockTids,
		}
		rep.Snapshot = drv.FailureSnapshot(res.Time)
		return rep
	}
	if drv.Triggered() {
		rep.Snapshot = drv.TriggerSnapshot()
	}
	return rep
}

// ReportFromResult wraps a raw VM result as a RunReport (no trace
// snapshot); used by untraced execution modes such as record/replay.
func ReportFromResult(res *vm.Result) *RunReport {
	rep := &RunReport{Result: res}
	if res.Failed() {
		f := res.Failure
		rep.Failure = &FailureReport{
			Deadlock:     f.Kind == vm.FailDeadlock,
			PC:           f.PC,
			Tid:          f.Thread,
			Time:         f.Time,
			Msg:          f.Msg,
			DeadlockPCs:  f.DeadlockPCs,
			DeadlockTids: f.DeadlockTids,
		}
	}
	return rep
}

// StageStats quantifies each pipeline stage's effect — the raw data
// behind Figure 7 (per-stage accuracy contribution) and Table 4
// (hybrid analysis times and speedups).
type StageStats struct {
	// TotalInstrs is the module's static instruction count.
	TotalInstrs int
	// ExecutedInstrs is the scope after trace processing (step 2).
	ExecutedInstrs int
	// Candidates is the alias-filtered instruction count after the
	// hybrid points-to analysis (step 4).
	Candidates int
	// Rank1Candidates is the exact-type-match subset (step 5).
	Rank1Candidates int
	// Patterns is the number of candidate patterns (step 6).
	Patterns int
	// DynEvents is the length of the partially-ordered dynamic
	// instruction trace (step 3).
	DynEvents int
	// SuccessTraces is how many successful traces fed statistical
	// diagnosis (step 7).
	SuccessTraces int
	// DroppedSuccesses is how many uploaded success traces were
	// undecodable (corrupt rings, decode panics) and skipped by
	// degraded-mode diagnosis; the statistics cover the survivors.
	DroppedSuccesses int
	// PointsToTime is the wall-clock cost of constraint generation
	// and solving on this host (near zero on a cache hit).
	PointsToTime time.Duration
	// DecodeTime is the wall-clock cost of decoding and processing
	// the failing trace (steps 2–3).
	DecodeTime time.Duration
	// RankTime is the wall-clock cost of type-based ranking (step 5).
	RankTime time.Duration
	// PatternTime is the wall-clock cost of pattern computation,
	// including the deep-anchor and multi-variable extensions (step 6).
	PatternTime time.Duration
	// ObserveTime is the wall-clock cost of statistical diagnosis
	// (step 7): success-trace decode/observe fan-out plus scoring.
	ObserveTime time.Duration
	// TotalTime is the wall-clock cost of the whole server-side
	// analysis for the failing trace.
	TotalTime time.Duration
	// PointsToCacheHit reports that step 4 was served from the
	// server's analysis cache for this diagnosis.
	PointsToCacheHit bool
	// PointsToCacheHits and PointsToCacheMisses are the server's
	// cumulative cache counters as of this diagnosis.
	PointsToCacheHits, PointsToCacheMisses uint64
	// Workers is the success-trace pool size this diagnosis ran with.
	Workers int
}

// Diagnosis is the server's verdict for one failure.
type Diagnosis struct {
	// Best is the top-scored pattern.
	Best statdiag.Score
	// Unique reports whether Best strictly beats the runner-up.
	Unique bool
	// Scores lists every pattern's statistics, best first.
	Scores []statdiag.Score
	// AnchorPC is the instruction the analysis anchored on (the load
	// of the corrupt pointer for crashes; the blocked lock attempt
	// for deadlocks).
	AnchorPC ir.PC
	// Stats carries the per-stage measurements.
	Stats StageStats
}

// Server runs the Lazy Diagnosis analysis for one module.
//
// Diagnose is safe for concurrent use by multiple goroutines (the
// network server calls it from per-connection handlers) as long as
// the configuration fields are not mutated once diagnoses start.
type Server struct {
	Mod *ir.Module
	// PT must match the client's trace configuration.
	PT pt.Config
	// Pattern bounds pattern computation.
	Pattern pattern.Config
	// MaxSuccessTraces caps how many successful traces are used per
	// failing trace (the paper's empirically-determined 10×).
	MaxSuccessTraces int
	// Workers bounds the success-trace decode/observe pool in step 7.
	// 0 uses runtime.GOMAXPROCS(0); 1 forces the serial path. Any
	// setting produces bit-identical diagnoses.
	Workers int
	// UseUnification switches the points-to stage to the
	// Steensgaard baseline (ablation only).
	UseUnification bool
	// DisableRanking turns off type-based ranking (ablation only):
	// every candidate gets rank 1.
	DisableRanking bool
	// DisableCache turns off the points-to analysis cache — for
	// ablations and cold-path timing measurements (Table 4 reports
	// uncached solve times).
	DisableCache bool
	// DisableObs turns off per-stage latency histograms (for ablations
	// and the observability-overhead benchmark). The operational
	// counters — cache, drops, diagnoses — stay live either way,
	// because they are the server's single source of truth, not an
	// optional layer on top of one.
	DisableObs bool

	// mu guards the analysis cache.
	mu       sync.Mutex
	analyses map[analysisKey]*cachedAnalysis

	// obsOnce guards the lazily-built metrics registry (see obs.go).
	obsOnce sync.Once
	om      *coreMetrics
}

// NewServer returns a Server with the paper's defaults.
func NewServer(mod *ir.Module) *Server {
	return &Server{Mod: mod, MaxSuccessTraces: 10}
}

// analysisFor builds the points-to analysis for a scope.
func (s *Server) analysisFor(scope pointsto.Scope) ranking.Analysis {
	if s.UseUnification {
		return pointsto.NewSteensgaard(s.Mod, scope)
	}
	return pointsto.NewAndersen(s.Mod, scope)
}

// Diagnose runs steps 2–7 on one failing run plus traces from
// successful executions and returns the diagnosis.
func (s *Server) Diagnose(failing *RunReport, successes []*RunReport) (*Diagnosis, error) {
	if failing.Failure == nil || failing.Snapshot == nil {
		return nil, fmt.Errorf("core: failing report has no failure or snapshot")
	}
	start := time.Now()
	f := failing.Failure

	// Steps 2–3: trace processing. The two halves are timed apart for
	// the stage histograms; StageStats.DecodeTime keeps covering both.
	stop := map[int]ir.PC{f.Tid: f.PC}
	traces, err := pt.DecodeSnapshot(s.Mod, failing.Snapshot, s.PT, stop, nil)
	if err != nil {
		return nil, fmt.Errorf("core: decoding failing trace: %w", err)
	}
	rawDecodeTime := time.Since(start)
	procStart := time.Now()
	scope, failTrace := traceproc.Process(traces)
	procTime := time.Since(procStart)
	decodeTime := rawDecodeTime + procTime

	// Step 4: hybrid points-to analysis, scope restricted. Repeated
	// diagnoses of the same program and executed scope — the Session
	// loop, the network server's steady state — reuse the cached solve.
	ptStart := time.Now()
	analysis, cacheHit := s.scopedAnalysis(scope)
	ptTime := time.Since(ptStart)

	// Step 5: type-based ranking around the anchored failure.
	rankStart := time.Now()
	failInstr := s.Mod.InstrAt(f.PC)
	class := ranking.MemAccesses
	fi := pattern.FailureInfo{PC: f.PC, Tid: f.Tid, Time: f.Time}
	switch {
	case f.Deadlock && failInstr.Op() == ir.OpWait:
		// A hang at a condition wait is a lost wakeup: an order
		// violation on the condition variable (the notify ran before
		// the wait), not a lock cycle. Candidates are the sync
		// operations aliasing the condition.
		class = ranking.SyncOps
	case f.Deadlock:
		class = ranking.SyncOps
		fi.Deadlock = true
		fi.DeadlockPCs = f.DeadlockPCs
		fi.DeadlockTids = f.DeadlockTids
	default:
		anchor, _ := ranking.Anchor(failInstr)
		fi.PC = anchor.PC()
	}
	cands := ranking.Rank(s.Mod, failInstr, class, analysis, scope)
	if s.DisableRanking {
		for i := range cands {
			cands[i].Rank = 1
		}
	}
	rankTime := time.Since(rankStart)

	// Step 6: bug-pattern computation with partial flow sensitivity.
	patStart := time.Now()
	pats := pattern.Compute(s.Mod, fi, cands, failTrace, s.Pattern)

	// Extension (§7 future work): when the failing instruction is not
	// itself part of the bug pattern, the corrupt value may have
	// propagated through memory (a store into a cache slot, reloaded
	// later). Chase the anchor's value provenance through in-scope
	// may-aliased stores to deeper anchor loads and add their
	// patterns; statistical diagnosis keeps whichever anchor's
	// pattern actually predicts the failure.
	if !fi.Deadlock {
		for _, deep := range s.deepAnchors(fi.PC, analysis, scope, 2) {
			dfi := fi
			dfi.PC = deep.PC()
			dCands := ranking.Rank(s.Mod, deep, ranking.MemAccesses, analysis, scope)
			pats = append(pats, pattern.Compute(s.Mod, dfi, dCands, failTrace, s.Pattern)...)
		}
		pats = pattern.Dedupe(pats)
	}

	// Extension (§7 future work): a violated invariant over several
	// memory locations anchors at several loads; add multi-variable
	// atomicity patterns for every anchored-read pair.
	if a, isAssert := failInstr.(*ir.AssertInstr); isAssert && !f.Deadlock {
		if loads := ranking.AssertedLoads(a); len(loads) >= 2 {
			var anchors []pattern.MVAnchor
			for _, ld := range loads {
				anchors = append(anchors, pattern.MVAnchor{
					PC:    ld.PC(),
					Cands: ranking.Rank(s.Mod, ld, ranking.MemAccesses, analysis, scope),
				})
			}
			pats = append(pats, pattern.ComputeMultiVar(s.Mod, fi, anchors, failTrace, s.Pattern)...)
		}
	}
	patTime := time.Since(patStart)

	// Step 7: statistical diagnosis over failing + successful traces.
	// Success-trace decode and observation fan out across the worker
	// pool; observations commit in upload order so the scores are
	// bit-identical to the serial path.
	obsStart := time.Now()
	m := s.metrics()
	limit := s.MaxSuccessTraces
	if limit <= 0 {
		limit = 10
	}
	keys := make([]string, len(pats))
	for i, p := range pats {
		keys[i] = p.Key()
	}
	okObs, droppedOK := s.observeSuccesses(pats, keys, successes, limit)
	if droppedOK > 0 {
		m.dropped.Add(uint64(droppedOK))
	}
	observations := append([]statdiag.Observation{s.observe(pats, keys, failTrace, true)}, okObs...)
	observeTime := time.Since(obsStart)
	scoreStart := time.Now()
	scores := statdiag.Rank(pats, observations)
	best, unique := statdiag.Best(scores)
	scoreTime := time.Since(scoreStart)
	obsTime := observeTime + scoreTime

	hits, misses := s.CacheStats()
	rankCount := ranking.CountByRank(cands)
	totalTime := time.Since(start)
	d := &Diagnosis{
		Best:     best,
		Unique:   unique,
		Scores:   scores,
		AnchorPC: fi.PC,
		Stats: StageStats{
			TotalInstrs:         s.Mod.NumInstrs(),
			ExecutedInstrs:      len(scope),
			Candidates:          len(cands),
			Rank1Candidates:     rankCount[1],
			Patterns:            len(pats),
			DynEvents:           len(failTrace.Events),
			SuccessTraces:       len(okObs),
			DroppedSuccesses:    droppedOK,
			PointsToTime:        ptTime,
			DecodeTime:          decodeTime,
			RankTime:            rankTime,
			PatternTime:         patTime,
			ObserveTime:         obsTime,
			TotalTime:           totalTime,
			PointsToCacheHit:    cacheHit,
			PointsToCacheHits:   hits,
			PointsToCacheMisses: misses,
			Workers:             s.workerCount(),
		},
	}

	// Commit the per-stage span in one pass, so every stage histogram's
	// count equals the number of completed diagnoses; a diagnosis that
	// errored out above recorded nothing.
	if sp := s.span(); sp != nil {
		sp.Record(obs.StageDecode, rawDecodeTime)
		sp.Record(obs.StageTraceProc, procTime)
		sp.Record(obs.StagePointsTo, ptTime)
		sp.Record(obs.StageRank, rankTime)
		sp.Record(obs.StagePattern, patTime)
		sp.Record(obs.StageObserve, observeTime)
		sp.Record(obs.StageStatDiag, scoreTime)
		sp.Record(obs.StageTotal, totalTime)
		sp.Commit()
	}
	m.diagnoses.Inc()
	m.successTraces.Add(uint64(len(okObs)))
	return d, nil
}

// DroppedSuccessCount returns the cumulative number of success traces
// skipped by degraded-mode diagnosis since the server was created. It
// reads the same registry counter the /metrics endpoint serves.
func (s *Server) DroppedSuccessCount() uint64 {
	return s.metrics().dropped.Value()
}

// deepAnchors walks corrupt-value provenance through memory: starting
// at the load anchoring the failure, any in-scope store that may
// alias the anchored slot carries the corruption; the loads feeding
// that store's value are the next anchors. Depth bounds the walk.
func (s *Server) deepAnchors(anchorPC ir.PC, analysis ranking.Analysis, scope pointsto.Scope, depth int) []*ir.LoadInstr {
	var out []*ir.LoadInstr
	seen := map[ir.PC]bool{anchorPC: true}
	frontier := []ir.PC{anchorPC}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []ir.PC
		for _, pc := range frontier {
			ld, ok := s.Mod.InstrAt(pc).(*ir.LoadInstr)
			if !ok {
				continue
			}
			s.Mod.Instrs(func(in ir.Instr) {
				st, isStore := in.(*ir.StoreInstr)
				if !isStore || !scope.In(in) || !analysis.MayAlias(st.Addr, ld.Addr) {
					return
				}
				for _, src := range ranking.ValueLoads(in.Block().Parent, st.Val) {
					if !seen[src.PC()] && scope.In(src) {
						seen[src.PC()] = true
						out = append(out, src)
						next = append(next, src.PC())
					}
				}
			})
		}
		frontier = next
	}
	return out
}

// observe evaluates every pattern on one trace; keys[i] is pats[i].Key().
func (s *Server) observe(pats []*pattern.Pattern, keys []string, tr *traceproc.Trace, failed bool) statdiag.Observation {
	o := statdiag.Observation{Failed: failed, Present: make(map[string]bool, len(pats))}
	for i, p := range pats {
		o.Present[keys[i]] = pattern.Present(s.Mod, p, tr)
	}
	return o
}

// watchSet is what statistical diagnosis reads of a success trace:
// every pattern PC and, when a deadlock pattern needs heldLockBefore's
// lock history, every lock and unlock. A success trace decoded with
// it merges to the full trace filtered by PC, in the same order and
// with the same Seqs, so every pattern's Present is unchanged.
func (s *Server) watchSet(pats []*pattern.Pattern) pt.Watch {
	w := make(pt.Watch, s.Mod.NumInstrs())
	deadlock := false
	for _, p := range pats {
		deadlock = deadlock || p.Kind == pattern.KindDeadlock
		for _, pc := range p.PCs {
			if pc != ir.NoPC {
				w[pc] = true
			}
		}
	}
	if deadlock {
		s.Mod.Instrs(func(in ir.Instr) {
			if k := pattern.AccessKind(in); k == 'L' || k == 'U' {
				w[in.PC()] = true
			}
		})
	}
	return w
}

// WholeProgramAnalysisTime runs the points-to analysis without scope
// restriction and reports its wall-clock cost — the Table 4 baseline.
func (s *Server) WholeProgramAnalysisTime() time.Duration {
	start := time.Now()
	if s.UseUnification {
		pointsto.NewSteensgaard(s.Mod, nil)
	} else {
		pointsto.NewAndersen(s.Mod, nil)
	}
	return time.Since(start)
}
