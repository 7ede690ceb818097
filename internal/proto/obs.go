package proto

import (
	"time"

	"snorlax/internal/obs"
)

// Protocol metric names, registered on the core server's registry so
// the whole pipeline — analysis stages, cache, wire protocol — scrapes
// as one surface and the "status" reply is a view over it.
const (
	MetricOpenConns       = "snorlax_open_conns"
	MetricActiveDiagnoses = "snorlax_active_diagnoses"
	MetricQueuedDiagnoses = "snorlax_queued_diagnoses"
	MetricMaxConcurrent   = "snorlax_max_concurrent_diagnoses"
	MetricWorkers         = "snorlax_observe_workers"

	MetricDiagnosesCompleted = "snorlax_diagnoses_completed_total"
	MetricDiagnosesFailed    = "snorlax_diagnoses_failed_total"
	MetricDeadlineDrops      = "snorlax_deadline_drops_total"
	MetricOversizeRejects    = "snorlax_oversize_rejects_total"
	MetricPanicsRecovered    = "snorlax_panics_recovered_total"
	MetricAcceptRetries      = "snorlax_accept_retries_total"
	MetricRxBytes            = "snorlax_rx_bytes_total"
	MetricTxBytes            = "snorlax_tx_bytes_total"

	MetricDiagnoseSeconds = "snorlax_diagnose_seconds"
	MetricRequests        = "snorlax_requests_total"
	MetricRequestSeconds  = "snorlax_request_seconds"

	// Fleet-mode registry gauges (see fleet.go).
	MetricFleetTenants = "snorlax_fleet_tenants"
	// MetricFleetTenantsLoaded gauges tenants whose module is parsed
	// and analysis server built; restored tenants stay unloaded until
	// their first case needs them.
	MetricFleetTenantsLoaded   = "snorlax_fleet_tenants_loaded"
	MetricFleetArmedDirectives = "snorlax_fleet_armed_directives"
	MetricFleetQuotaHave       = "snorlax_fleet_quota_have"
	MetricFleetQuotaWant       = "snorlax_fleet_quota_want"
	MetricFleetReports         = "snorlax_fleet_reports_published_total"
	// MetricFleetLedgerEntries gauges live (client, case) entries in
	// the batch-dedup sequence ledgers; it returns to baseline when
	// cases close and their ledgers are pruned.
	MetricFleetLedgerEntries = "snorlax_fleet_ledger_entries"

	// MetricWireFrameErrors counts rejected/failed frames by failure
	// kind ("header", "payload", "truncated", "frame-limit", "decode").
	MetricWireFrameErrors = "snorlax_wire_frame_errors_total"
)

// Frame-error label values.
const (
	frameErrHeader    = "header"
	frameErrPayload   = "payload"
	frameErrTruncated = "truncated"
	frameErrLimit     = "frame-limit"
	frameErrDecode    = "decode"
)

var frameErrorKinds = []string{frameErrHeader, frameErrPayload,
	frameErrTruncated, frameErrLimit, frameErrDecode}

// Help strings of the series both the serving core and the server's
// status view register (the registry is idempotent; one help text).
const (
	helpOpenConns       = "Currently connected clients."
	helpDeadlineDrops   = "Connections dropped for blowing a read or write deadline."
	helpOversizeRejects = "Messages and snapshots rejected for exceeding the byte caps."
	helpPanicsRecovered = "Panics caught in connection handlers and diagnoses."
)

// requestKinds are the label values per-request metrics are keyed by.
// Request.Kind is client-controlled, so anything unrecognized is
// bucketed under "other" rather than minting unbounded label values.
var requestKinds = []string{"status", "register", "fleet-failure",
	"directives", "batch", "report", "publish", "other"}

type requestMetrics struct {
	total   *obs.Counter
	seconds *obs.Histogram
}

// protoMetrics bundles the protocol server's registry handles. Every
// ServerStatus field with a counter semantic reads one of these — the
// status reply holds no state of its own.
type protoMetrics struct {
	openConns     *obs.Gauge
	active        *obs.Gauge
	queued        *obs.Gauge
	maxConcurrent *obs.Gauge
	workers       *obs.Gauge

	completed       *obs.Counter
	failed          *obs.Counter
	deadlineDrops   *obs.Counter
	oversizeRejects *obs.Counter
	panicsRecovered *obs.Counter
	rxBytes         *obs.Counter
	txBytes         *obs.Counter

	diagnoseSeconds *obs.Histogram
	requests        map[string]requestMetrics

	fleetTenants   *obs.Gauge
	fleetLoaded    *obs.Gauge
	fleetArmed     *obs.Gauge
	fleetQuotaHave *obs.Gauge
	fleetQuotaWant *obs.Gauge
	fleetReports   *obs.Counter
	fleetLedger    *obs.Gauge
}

func newProtoMetrics(reg *obs.Registry) *protoMetrics {
	m := &protoMetrics{
		openConns: reg.Gauge(MetricOpenConns, helpOpenConns),
		active:    reg.Gauge(MetricActiveDiagnoses, "Diagnoses running right now."),
		queued:    reg.Gauge(MetricQueuedDiagnoses, "Diagnoses waiting on the concurrency semaphore."),
		maxConcurrent: reg.Gauge(MetricMaxConcurrent,
			"Effective diagnosis semaphore width (configuration echo)."),
		workers: reg.Gauge(MetricWorkers,
			"Effective success-trace worker pool size (configuration echo)."),
		completed:       reg.Counter(MetricDiagnosesCompleted, "Diagnose requests answered with a diagnosis."),
		failed:          reg.Counter(MetricDiagnosesFailed, "Diagnose requests answered with an error."),
		deadlineDrops:   reg.Counter(MetricDeadlineDrops, helpDeadlineDrops),
		oversizeRejects: reg.Counter(MetricOversizeRejects, helpOversizeRejects),
		panicsRecovered: reg.Counter(MetricPanicsRecovered, helpPanicsRecovered),
		rxBytes:         reg.Counter(MetricRxBytes, "Bytes read from client connections."),
		txBytes:         reg.Counter(MetricTxBytes, "Bytes written to client connections."),
		diagnoseSeconds: reg.Histogram(MetricDiagnoseSeconds,
			"Wall-clock seconds per diagnosis, semaphore wait excluded.", nil),
		requests: make(map[string]requestMetrics, len(requestKinds)),
		fleetTenants: reg.Gauge(MetricFleetTenants,
			"Programs registered as fleet tenants."),
		fleetLoaded: reg.Gauge(MetricFleetTenantsLoaded,
			"Fleet tenants whose module is parsed and analysis server built."),
		fleetArmed: reg.Gauge(MetricFleetArmedDirectives,
			"Collection directives currently armed (cases still collecting)."),
		fleetQuotaHave: reg.Gauge(MetricFleetQuotaHave,
			"Success snapshots accepted toward armed directives' quotas."),
		fleetQuotaWant: reg.Gauge(MetricFleetQuotaWant,
			"Success snapshots wanted by armed directives in total."),
		fleetReports: reg.Counter(MetricFleetReports,
			"Fleet diagnosis reports published."),
		fleetLedger: reg.Gauge(MetricFleetLedgerEntries,
			"Live (client, case) batch-dedup ledger entries."),
	}
	for _, kind := range requestKinds {
		m.requests[kind] = requestMetrics{
			total: reg.Counter(MetricRequests,
				"Requests served, by request kind.", obs.L("kind", kind)),
			seconds: reg.Histogram(MetricRequestSeconds,
				"Wall-clock seconds serving each request, by kind.", nil, obs.L("kind", kind)),
		}
	}
	return m
}

// observeRequest records one served request's latency under its kind.
func (m *protoMetrics) observeRequest(kind string, d time.Duration) {
	rm, ok := m.requests[kind]
	if !ok {
		rm = m.requests["other"]
	}
	rm.total.Inc()
	rm.seconds.ObserveDuration(d)
}

// countingReader counts bytes pulled off a connection.
type countingReader struct {
	r interface{ Read([]byte) (int, error) }
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

// countingWriter counts bytes pushed onto a connection.
type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}
