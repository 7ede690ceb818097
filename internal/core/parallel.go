package core

import (
	"fmt"
	"runtime"
	"sync"

	"snorlax/internal/pattern"
	"snorlax/internal/pt"
	"snorlax/internal/statdiag"
	"snorlax/internal/traceproc"
)

// workerCount resolves the effective success-trace pool size.
func (s *Server) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// observeSuccesses decodes, merges and observes successful traces
// (the fan-out half of step 7) until limit observations are gathered
// or the uploads run out. keys[i] is pats[i].Key(). Each decode keeps
// only the patterns' watch set.
//
// In-production trace collection is lossy: a snapshot whose ring
// bytes were corrupted on the client, in flight, or in storage fails
// to decode, and a server that aborted the whole diagnosis on the
// first such trace would let one poisoned upload mask a diagnosable
// failure. Undecodable (or decode-panicking) traces are instead
// dropped and counted, later uploads take their place, and the F1
// statistic (§4.7) is computed over the surviving observations.
//
// Each upload is independent — one trace never informs another's
// decode — so each wave spreads across a bounded worker pool; results
// commit in upload order, which keeps diagnoses bit-identical to the
// serial path regardless of pool size, and the wave structure means a
// clean corpus never decodes more than limit snapshots.
func (s *Server) observeSuccesses(pats []*pattern.Pattern, keys []string, successes []*RunReport, limit int) (obs []statdiag.Observation, dropped int) {
	eligible := make([]*RunReport, 0, len(successes))
	for _, ok := range successes {
		if ok.Snapshot != nil {
			eligible = append(eligible, ok)
		}
	}

	type result struct {
		obs statdiag.Observation
		err error
	}
	watch := s.watchSet(pats)
	m := s.metrics()
	process := func(rep *RunReport) (res result) {
		// Queue-pressure accounting: the trace left the wave's queue
		// and is in flight on a worker.
		m.observeQueue.Dec()
		m.inflight.Inc()
		defer m.inflight.Dec()
		// A corrupt snapshot can do worse than return an error: ring
		// bytes that decode into out-of-range PCs panic deep in the
		// CFG walk. Degraded mode treats both the same way: drop the
		// trace, keep the diagnosis.
		defer func() {
			if r := recover(); r != nil {
				res.err = fmt.Errorf("core: success trace decode panicked: %v", r)
			}
		}()
		okTraces, err := pt.DecodeSnapshot(s.Mod, rep.Snapshot, s.PT, nil, watch)
		if err != nil {
			res.err = fmt.Errorf("core: decoding success trace: %w", err)
			return res
		}
		res.obs = s.observe(pats, keys, traceproc.Merge(okTraces), false)
		return res
	}

	next := 0
	for len(obs) < limit && next < len(eligible) {
		batch := eligible[next:min(next+limit-len(obs), len(eligible))]
		next += len(batch)
		m.observeQueue.Add(int64(len(batch)))
		results := make([]result, len(batch))
		if workers := min(s.workerCount(), len(batch)); workers > 1 {
			var wg sync.WaitGroup
			idx := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idx {
						results[i] = process(batch[i])
					}
				}()
			}
			for i := range batch {
				idx <- i
			}
			close(idx)
			wg.Wait()
		} else {
			for i := range batch {
				results[i] = process(batch[i])
			}
		}
		for _, r := range results {
			if r.err != nil {
				dropped++
			} else {
				obs = append(obs, r.obs)
			}
		}
	}
	return obs, dropped
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
