package core

import "snorlax/internal/obs"

// Core metric names. The analysis server's own counters live in the
// same registry the protocol layer and the /metrics endpoint read, so
// "status" replies and Prometheus scrapes can never disagree.
const (
	// MetricDiagnoses counts completed core diagnoses.
	MetricDiagnoses = "snorlax_diagnoses_total"
	// MetricCacheHits / MetricCacheMisses count points-to analysis
	// cache outcomes.
	MetricCacheHits   = "snorlax_pointsto_cache_hits_total"
	MetricCacheMisses = "snorlax_pointsto_cache_misses_total"
	// MetricDroppedSuccesses counts success traces skipped by
	// degraded-mode diagnosis.
	MetricDroppedSuccesses = "snorlax_dropped_successes_total"
	// MetricSuccessTraces counts success traces that survived decoding
	// and fed statistical diagnosis.
	MetricSuccessTraces = "snorlax_success_traces_observed_total"
	// MetricObserveQueueDepth gauges success traces admitted to the
	// current observe wave but not yet picked up by a worker.
	MetricObserveQueueDepth = "snorlax_observe_queue_depth"
	// MetricObserveInflight gauges success traces being decoded and
	// observed right now.
	MetricObserveInflight = "snorlax_observe_inflight"
)

// coreMetrics bundles the analysis server's registry handles.
type coreMetrics struct {
	reg      *obs.Registry
	pipeline *obs.Pipeline

	diagnoses     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	dropped       *obs.Counter
	successTraces *obs.Counter
	observeQueue  *obs.Gauge
	inflight      *obs.Gauge
}

// metrics lazily builds the server's registry and handles; the
// protocol layer and HTTP endpoint share the same registry via
// Metrics().
func (s *Server) metrics() *coreMetrics {
	s.obsOnce.Do(func() { s.om = newCoreMetrics(obs.NewRegistry()) })
	return s.om
}

// UseRegistry makes the server register its metrics on an existing
// registry instead of lazily creating its own. The multi-tenant
// protocol server points every tenant's analysis server at the one
// registry its /metrics endpoint serves, so fleet-wide pipeline and
// cache counters aggregate across tenants (registration is
// idempotent: equal names yield the same handles). It must be called
// before the first diagnosis or Metrics() call; afterwards it is a
// no-op, because retargeting live counters would fork the source of
// truth.
func (s *Server) UseRegistry(reg *obs.Registry) {
	s.obsOnce.Do(func() { s.om = newCoreMetrics(reg) })
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	return &coreMetrics{
		reg:      reg,
		pipeline: obs.NewPipeline(reg),
		diagnoses: reg.Counter(MetricDiagnoses,
			"Completed diagnoses (failing trace analyzed end to end)."),
		cacheHits: reg.Counter(MetricCacheHits,
			"Points-to analyses served from the scope-keyed cache."),
		cacheMisses: reg.Counter(MetricCacheMisses,
			"Points-to analyses solved from scratch."),
		dropped: reg.Counter(MetricDroppedSuccesses,
			"Success traces skipped as undecodable by degraded-mode diagnosis."),
		successTraces: reg.Counter(MetricSuccessTraces,
			"Success traces decoded and observed for statistical diagnosis."),
		observeQueue: reg.Gauge(MetricObserveQueueDepth,
			"Success traces queued for the observe worker pool."),
		inflight: reg.Gauge(MetricObserveInflight,
			"Success traces being decoded/observed right now."),
	}
}

// Metrics returns the server's metrics registry — the single source
// of truth behind CacheStats, DroppedSuccessCount, the protocol
// status reply, and the Prometheus endpoint.
func (s *Server) Metrics() *obs.Registry { return s.metrics().reg }
