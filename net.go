package snorlax

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/store"
)

// SyncPolicy selects when the durable case store fsyncs its
// write-ahead log (see ServeConfig.StateDir).
type SyncPolicy = store.SyncPolicy

const (
	// SyncInterval (the default) syncs from a background flusher every
	// ServeConfig.SyncInterval, keeping appends off the fsync path;
	// loss is bounded to that window, and the fleet protocol's
	// idempotency re-collects a lost tail.
	SyncInterval = store.SyncInterval
	// SyncAlways fsyncs every record before it is acknowledged.
	SyncAlways = store.SyncAlways
	// SyncNever leaves syncing to the OS, and to Shutdown's flush.
	SyncNever = store.SyncNever
)

// StoreStats reports the durable case store's operational counters,
// as returned by Server.Store.
type StoreStats = store.Stats

// ServeConfig tunes the diagnosis server's concurrency and its
// defenses against slow, greedy, or corrupt clients.
type ServeConfig struct {
	// Workers bounds the per-diagnosis success-trace decode/observe
	// pool; 0 uses runtime.GOMAXPROCS(0), 1 forces the serial path.
	// Any setting produces bit-identical diagnoses.
	Workers int
	// MaxConcurrentDiagnoses bounds simultaneous diagnoses across all
	// client connections; 0 uses runtime.GOMAXPROCS(0). Excess
	// requests queue rather than oversubscribe the host.
	MaxConcurrentDiagnoses int
	// IdleTimeout drops connections that send nothing for this long;
	// 0 means no idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write; 0 means no deadline.
	WriteTimeout time.Duration
	// MaxSnapshotBytes caps one uploaded snapshot's total ring bytes.
	// 0 applies a 64 MB default; negative means unlimited.
	MaxSnapshotBytes int64
	// Programs pre-registers tenants beyond the server's primary
	// program: each becomes a tenant clients can report failures under
	// without uploading the program themselves.
	Programs []*Program
	// SuccessQuota is the per-case success-trace quota: a case is
	// diagnosed once it has accepted this many, or earlier when a
	// client asks for its report (RemoteDiagnoser.Diagnose). 0 applies
	// the paper's 10× default.
	SuccessQuota int
	// DisableRegistration rejects client-side program registration,
	// restricting the server to the pre-registered Programs.
	DisableRegistration bool
	// StateDir, when set, makes fleet state durable: every state
	// transition (registration, case open, trace accept, quota,
	// published report) is written to a checksummed write-ahead log
	// under this directory before it is acknowledged, and NewServer
	// recovers from it on startup — re-arming directives, restoring
	// per-client dedup ledgers, and re-serving published reports from
	// disk without re-running diagnosis. Empty keeps state in memory
	// only, exactly the pre-durability behaviour.
	StateDir string
	// SyncPolicy selects when the log is fsynced: SyncInterval (the
	// default), SyncAlways, or SyncNever. Shutdown flushes and fsyncs
	// regardless.
	SyncPolicy SyncPolicy
	// SyncInterval is the background flush period under SyncInterval;
	// 0 means 50ms.
	SyncInterval time.Duration
	// CaseBase namespaces this server's case ids above the given base,
	// so a sharded fleet tier can give every shard a disjoint range
	// (shard i conventionally gets i<<32) and case ids stay unique —
	// and routable — fleet-wide. 0 keeps the unsharded numbering.
	CaseBase uint64
}

// Server is a diagnosis server that can be drained gracefully. Zero
// value is not usable; construct with NewServer.
type Server struct {
	ps *proto.Server
}

// NewServer builds a diagnosis server with prog registered as a
// tenant. Additional programs in cfg.Programs (and, unless
// registration is disabled, programs clients register at runtime) are
// served as tenants alongside it. With
// a StateDir configured, NewServer opens (or recovers) the durable
// case store before anything is registered; recovery errors and
// unusable state directories surface here, not mid-serve.
func NewServer(prog *Program, cfg ServeConfig) (*Server, error) {
	cs := core.NewServer(prog.mod)
	cs.Workers = cfg.Workers
	ps := proto.NewServer(cs)
	ps.MaxConcurrent = cfg.MaxConcurrentDiagnoses
	ps.IdleTimeout = cfg.IdleTimeout
	ps.WriteTimeout = cfg.WriteTimeout
	ps.MaxSnapshotBytes = cfg.MaxSnapshotBytes
	ps.FleetQuota = cfg.SuccessQuota
	ps.DisableRegistration = cfg.DisableRegistration
	ps.CaseBase = cfg.CaseBase
	if cfg.StateDir != "" {
		w, err := store.Open(cfg.StateDir, store.Options{
			SyncPolicy:   cfg.SyncPolicy,
			SyncInterval: cfg.SyncInterval,
			Registry:     ps.Metrics(),
		})
		if err != nil {
			return nil, err
		}
		ps.Store = w
		if err := ps.Restore(w.RecoveredState()); err != nil {
			w.Close()
			return nil, err
		}
	}
	s := &Server{ps: ps}
	progs := append([]*Program{prog}, cfg.Programs...)
	for _, p := range progs {
		if _, err := s.RegisterProgram(p); err != nil {
			if ps.Store != nil {
				ps.Store.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// RegisterProgram registers prog as a fleet tenant (idempotently, by
// module fingerprint) and returns its tenant id. With a durable store,
// a first-time registration is logged before it is acknowledged; the
// error reports a failed append.
func (s *Server) RegisterProgram(prog *Program) (TenantID, error) {
	return s.ps.RegisterProgram(prog.mod)
}

// Store reports the durable case store's operational counters —
// records and bytes appended, fsyncs, snapshots, compactions,
// truncated-tail recoveries. A server without a StateDir returns zero
// stats.
func (s *Server) Store() StoreStats {
	if s.ps.Store == nil {
		return StoreStats{}
	}
	return s.ps.Store.Stats()
}

// Serve accepts and serves connections until the listener closes or
// Shutdown is called; after Shutdown it returns nil.
func (s *Server) Serve(ln net.Listener) error { return s.ps.Serve(ln) }

// Shutdown stops accepting, lets in-flight requests finish, closes
// idle connections, and returns when everything has drained or the
// context expires (then remaining connections are force-closed and
// the context's error is returned). The durable store, if any, is
// flushed, fsynced and closed before Shutdown returns; store errors
// join the drain error.
func (s *Server) Shutdown(ctx context.Context) error { return s.ps.Shutdown(ctx) }

// Status reports the server's counters directly, without a client
// round trip. It is a view over the same metrics registry the
// /metrics endpoint serves — the two cannot disagree on a quiesced
// server.
func (s *Server) Status() ServerStatus { return s.ps.Status() }

// MetricsMux returns the server's opt-in operational HTTP surface:
// GET /metrics serves every pipeline, cache and protocol metric in
// Prometheus text exposition format, /debug/pprof/* serves the
// standard profiling endpoints, and /healthz and /readyz serve the
// liveness and readiness probes (ready means: not draining, durable
// state restored, store not poisoned). Nothing serves it by default —
// mount it on a listener the operator chose (the CLI's -metrics-addr
// flag).
func (s *Server) MetricsMux() *http.ServeMux {
	return obs.DebugMux(s.ps.Metrics(), s.ps.Ready)
}

// Ready reports whether the server should receive traffic: nil while
// serving normally, an error naming the condition while draining,
// before durable state is restored, or after the store is poisoned.
// It is the same check /readyz serves — exposed directly for
// supervisors and routers that probe in-process.
func (s *Server) Ready() error { return s.ps.Ready() }

// WriteMetrics renders the server's metrics in Prometheus text
// exposition format without going through HTTP.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.ps.Metrics().WritePrometheus(w)
}

// Serve runs a diagnosis server for prog on the listener with default
// concurrency, blocking until the listener closes. Production clients
// connect with Dial, upload failures and successful traces, and
// request diagnoses — the deployment model of the paper's Figure 2.
func Serve(ln net.Listener, prog *Program) error {
	return ServeConfigured(ln, prog, ServeConfig{})
}

// ServeConfigured is Serve with explicit concurrency and robustness
// knobs.
func ServeConfigured(ln net.Listener, prog *Program, cfg ServeConfig) error {
	s, err := NewServer(prog, cfg)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ServerStatus reports a diagnosis server's concurrency, cache, and
// degradation state, as returned by Server.Status and
// RemoteDiagnoser.ServerStatus.
type ServerStatus = proto.ServerStatus

// RetryConfig tunes a retrying remote client (see DialRetrying).
type RetryConfig struct {
	// MaxAttempts bounds how many times one operation (including any
	// reconnect it needs) is tried; 0 means 8.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// it doubles per attempt up to MaxDelay (default 2s), with
	// jitter.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout bounds each round trip on the wire, turning a stalled
	// server into a retryable timeout; 0 means no deadline. Leave
	// headroom for the slowest expected diagnosis.
	OpTimeout time.Duration
}

// RemoteDiagnoser is a client of a diagnosis server. Its session is a
// fleet case: ReportFailure registers the program if the server does
// not know it and opens (or joins) the case of the failure's PC,
// SendSuccess uploads each trace idempotently, and Diagnose publishes
// the case from the traces accepted so far. Because the case belongs
// to the (program, failure PC) pair, not to this client, a failure
// whose case is already published returns that report, and the
// session survives a reconnect — and, with a durable server, a
// server restart.
type RemoteDiagnoser struct {
	prog *Program
	rc   *proto.RetryClient
}

// Dial connects to a diagnosis server for prog. It is the one-attempt
// client: the connection is made here, and any transport failure
// surfaces as an error. Production clients usually want DialRetrying
// instead.
func Dial(network, addr string, prog *Program) (*RemoteDiagnoser, error) {
	r := &RemoteDiagnoser{prog: prog, rc: proto.DialRetrying(network, addr, proto.RetryConfig{MaxAttempts: 1})}
	if err := r.rc.Do(context.Background(), func(*proto.Conn) error { return nil }); err != nil {
		return nil, err
	}
	return r, nil
}

// DialRetrying returns a fault-tolerant client for a diagnosis server:
// transport failures trigger reconnects with exponential backoff and
// jitter, and the failed operation is repeated on the fresh connection
// — safe because every operation is idempotent. The first connection
// is made lazily, so DialRetrying itself never fails; a dead address
// surfaces from the first operation once MaxAttempts is spent.
func DialRetrying(network, addr string, prog *Program, cfg RetryConfig) *RemoteDiagnoser {
	return &RemoteDiagnoser{prog: prog, rc: proto.DialRetrying(network, addr, proto.RetryConfig{
		MaxAttempts: cfg.MaxAttempts,
		BaseDelay:   cfg.BaseDelay,
		MaxDelay:    cfg.MaxDelay,
		OpTimeout:   cfg.OpTimeout,
	})}
}

// Close releases the connection.
func (r *RemoteDiagnoser) Close() error { return r.rc.Close() }

// Retries reports how many times the client re-dialed after a
// transport failure; it is the client-side degradation counter.
func (r *RemoteDiagnoser) Retries() uint64 { return r.rc.Retries() }

// ReportFailure uploads a failing execution; the returned PC is where
// the server wants successful executions traced.
func (r *RemoteDiagnoser) ReportFailure(failing *Execution) (PC, error) {
	return r.rc.ReportFailure(r.prog.mod, failing.report.Failure, failing.Snapshot())
}

// SendSuccess uploads one successful triggered execution. Once the
// case has its quota, further uploads are accepted and ignored.
func (r *RemoteDiagnoser) SendSuccess(ok *Execution) error {
	return r.rc.SendSuccess(ok.Snapshot())
}

// Diagnose asks the server for the verdict on the failure's case.
func (r *RemoteDiagnoser) Diagnose() (*Report, error) {
	d, err := r.rc.Diagnose()
	if err != nil {
		return nil, err
	}
	return newReport(r.prog, d), nil
}

// ServerStatus asks the server for its concurrency and cache state.
func (r *RemoteDiagnoser) ServerStatus() (ServerStatus, error) {
	return r.rc.Status()
}
