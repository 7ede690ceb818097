package core

import (
	"sync"

	"snorlax/internal/ir"
	"snorlax/internal/pointsto"
	"snorlax/internal/ranking"
)

// maxCachedAnalyses bounds the per-server analysis cache. Steady-state
// workloads (the Session loop, the network server re-diagnosing the
// same failure site) cycle through a handful of executed scopes, so
// when the cache overflows it is cheaper to drop it wholesale than to
// track recency.
const maxCachedAnalyses = 64

// analysisKey identifies one solved points-to analysis: the module it
// was built for and a fingerprint of the executed scope that
// restricted constraint generation.
type analysisKey struct {
	mod       *ir.Module
	scopeHash uint64
}

// cachedAnalysis pairs the solved analysis with the canonical scope it
// was built from; lookups verify the full PC list so a hash collision
// can never hand back the wrong analysis.
type cachedAnalysis struct {
	scope []ir.PC
	an    *lockedAnalysis
}

// lockedAnalysis serializes queries to a shared points-to analysis.
// The Andersen analysis mutates internal state on reads — it interns
// objects for operands first seen at query time — so an analysis
// shared across concurrent diagnoses must be locked. The ObjSets PointsTo returns are not
// mutated by later queries, so reading them outside the lock is safe.
type lockedAnalysis struct {
	mu sync.Mutex
	an ranking.Analysis
}

func (l *lockedAnalysis) PointsTo(v ir.Value) pointsto.ObjSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.an.PointsTo(v)
}

func (l *lockedAnalysis) MayAlias(p, q ir.Value) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.an.MayAlias(p, q)
}

// scopedAnalysis returns the points-to analysis for scope, reusing a
// cached solve when the module and executed scope both match —
// the steady-state fast path that skips step 4 entirely. The second
// result reports whether the cache served the request.
func (s *Server) scopedAnalysis(scope pointsto.Scope) (ranking.Analysis, bool) {
	if s.DisableCache {
		return s.analysisFor(scope), false
	}
	key := analysisKey{mod: s.Mod, scopeHash: scope.Hash()}
	canon := scope.SortedPCs()
	m := s.metrics()

	s.mu.Lock()
	if e, ok := s.analyses[key]; ok && pointsto.EqualPCs(e.scope, canon) {
		s.mu.Unlock()
		m.cacheHits.Inc()
		return e.an, true
	}
	s.mu.Unlock()
	m.cacheMisses.Inc()

	// Solve outside the lock: concurrent misses on the same scope
	// duplicate work but never block each other; last store wins.
	an := &lockedAnalysis{an: s.analysisFor(scope)}
	s.mu.Lock()
	if s.analyses == nil {
		s.analyses = make(map[analysisKey]*cachedAnalysis)
	}
	if len(s.analyses) >= maxCachedAnalyses {
		s.analyses = make(map[analysisKey]*cachedAnalysis)
	}
	s.analyses[key] = &cachedAnalysis{scope: canon, an: an}
	s.mu.Unlock()
	return an, false
}

// CacheStats returns the cumulative points-to cache hit and miss
// counts since the server was created. It reads the same registry
// counters the /metrics endpoint serves.
func (s *Server) CacheStats() (hits, misses uint64) {
	m := s.metrics()
	return m.cacheHits.Value(), m.cacheMisses.Value()
}
