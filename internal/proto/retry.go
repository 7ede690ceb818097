package proto

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// RetryConfig tunes the reconnecting client and the shard router's
// forwarding retries.
type RetryConfig struct {
	// MaxAttempts bounds how many times one operation (including the
	// reconnect it needs) is tried; 0 means 8.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// it doubles per attempt up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout bounds each round trip on the wire, turning a stalled
	// peer into a retryable timeout; 0 means no deadline. Publish
	// requests wait out the server's analysis, so leave headroom for
	// the slowest expected diagnosis.
	OpTimeout time.Duration
	// JitterSeed seeds the deterministic jitter source so backoff
	// schedules are reproducible in tests; 0 derives per-client
	// entropy, so a fleet of default-configured clients never backs
	// off in lockstep (the reconnect thundering herd this jitter
	// exists to break).
	JitterSeed int64
}

// Attempts is how many times one operation is tried.
func (c RetryConfig) Attempts() int {
	if c.MaxAttempts <= 0 {
		return 8
	}
	return c.MaxAttempts
}

func (c RetryConfig) baseDelay() time.Duration {
	if c.BaseDelay <= 0 {
		return 10 * time.Millisecond
	}
	return c.BaseDelay
}

// Backoff is the delay before the a-th retry (a ≥ 1): BaseDelay
// doubling per attempt up to MaxDelay, scaled by 0.5+jitter for a
// jitter draw in [0, 1) — ±50% around the exponential schedule.
func (c RetryConfig) Backoff(a int, jitter float64) time.Duration {
	max := c.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := c.baseDelay() << uint(a-1)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + jitter))
}

// RetryClient is the one reconnecting client of the fleet protocol.
// Do runs an operation on a live connection; on a transport failure it
// reconnects with exponential backoff and jitter and runs the
// operation again on the fresh connection. That is safe because every
// fleet request is idempotent: registration is keyed by module
// fingerprint, failure reports join the case of their PC, uploads
// carry a client id and sequence number, and publishing a published
// case returns its report. Server "error" replies are deterministic
// rejections and are returned, not retried.
//
// ReportFailure, SendSuccess and Diagnose run a single program's
// diagnosis session as a fleet case. The session joins the (program,
// failure PC) case like any agent, so a failure whose case another
// client already drove to a published report gets that report.
//
// A RetryClient serializes its operations; share one across goroutines
// only for calls that need no order between them.
type RetryClient struct {
	dial func() (net.Conn, error)
	cfg  RetryConfig

	mu   sync.Mutex
	conn *Conn
	rng  *mrand.Rand
	// dialed flips on the first dial attempt; every dial after it is a
	// retry (a reconnect or a re-dial after a failed connect).
	dialed  bool
	retries uint64

	// The session: the program's tenant, the case and its trigger, and
	// the session's own upload stream — a fresh client id per
	// ReportFailure and the sequence number of the next upload.
	tenant  TenantID
	caseID  CaseID
	trigger ir.PC
	client  string
	seq     uint64
}

// errNoSession rejects session calls made before ReportFailure.
var errNoSession = errors.New("proto: no failure reported in this session")

// NewRetryClient wraps a dial function (called on every connect and
// reconnect) in a retrying client.
func NewRetryClient(dial func() (net.Conn, error), cfg RetryConfig) *RetryClient {
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = DeriveJitterSeed()
	}
	return &RetryClient{dial: dial, cfg: cfg, rng: mrand.New(mrand.NewSource(seed))}
}

// jitterCounter makes every derived seed process-unique even when the
// clock is coarse.
var jitterCounter atomic.Uint64

// DeriveJitterSeed returns fresh per-client backoff entropy — what an
// unset JitterSeed uses. Every call yields a distinct, well-mixed
// seed (an atomic counter xor wall clock, diffused through
// splitmix64), so a fleet of default-configured clients spreads its
// reconnects instead of hammering a recovering server in lockstep.
// Explicitly-seeded configs are untouched and stay deterministic.
func DeriveJitterSeed() int64 {
	x := jitterCounter.Add(1) ^ uint64(time.Now().UnixNano())
	// splitmix64 finalizer: full-avalanche mixing, so consecutive
	// counter values land on unrelated schedules.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

// DialRetrying returns a retrying client for a network address. The
// first connection is made lazily, so this never fails; a wrong
// address surfaces from the first operation after MaxAttempts tries.
func DialRetrying(network, addr string, cfg RetryConfig) *RetryClient {
	return NewRetryClient(func() (net.Conn, error) { return net.Dial(network, addr) }, cfg)
}

// Close drops the live connection, if any. The session is kept, so a
// later operation transparently reconnects.
func (r *RetryClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropConn()
}

// Retries counts every dial after the first — reconnects after a
// dropped transport and re-dials after failed connects. It is the
// client-side degradation counter: zero means the client never saw a
// fault.
func (r *RetryClient) Retries() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

func (r *RetryClient) dropConn() error {
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// connect returns the live connection, dialing one if needed.
func (r *RetryClient) connect() (*Conn, error) {
	if r.conn != nil {
		return r.conn, nil
	}
	if r.dialed {
		r.retries++
	}
	r.dialed = true
	nc, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.conn = NewConn(nc)
	return r.conn, nil
}

// Do runs fn on a live connection, retrying across reconnects until it
// succeeds, the server rejects it deterministically, the attempt
// budget is spent, or ctx is done. Each round trip runs under
// OpTimeout. fn must be idempotent: it may run again after a failure
// that hit the wire after the server had acted.
func (r *RetryClient) Do(ctx context.Context, fn func(c *Conn) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.do(ctx, fn)
}

func (r *RetryClient) do(ctx context.Context, fn func(c *Conn) error) error {
	var lastErr error
	attempts := r.cfg.Attempts()
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(r.cfg.Backoff(a, r.rng.Float64())):
			}
		}
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("proto: %w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		c, err := r.connect()
		if err == nil {
			err = r.op(c, fn)
		}
		var se *ServerError
		if err == nil || errors.As(err, &se) {
			return err
		}
		r.dropConn()
		lastErr = err
	}
	return fmt.Errorf("proto: giving up after %d attempts: %w", attempts, lastErr)
}

// op runs one round trip under the configured deadline.
func (r *RetryClient) op(c *Conn, fn func(c *Conn) error) error {
	if r.cfg.OpTimeout > 0 {
		c.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
		defer c.SetDeadline(time.Time{})
	}
	return fn(c)
}

// ReportFailure starts a session: it reports mod's failure and returns
// the PC the server wants successful executions traced at. The tenant
// id is mod's fingerprint, computed here; mod is registered only if
// the server answers that it does not know the tenant.
func (r *RetryClient) ReportFailure(mod *ir.Module, f *core.FailureReport, snap *pt.Snapshot) (ir.PC, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.client = ""
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return ir.NoPC, fmt.Errorf("proto: session client id: %w", err)
	}
	text := ir.Print(mod)
	r.tenant, r.seq = textFingerprint(text), 1
	var d Directive
	report := func(c *Conn) (err error) {
		r.caseID, d, _, err = c.ReportFleetFailure(r.tenant, f, snap)
		return err
	}
	ctx := context.Background()
	err := r.do(ctx, report)
	var se *ServerError
	if errors.As(err, &se) && se.Code == CodeUnknownTenant {
		err = r.do(ctx, func(c *Conn) error {
			if _, err := c.Register(text); err != nil {
				return err
			}
			return report(c)
		})
	}
	if err != nil {
		return ir.NoPC, err
	}
	r.client = "session-" + hex.EncodeToString(id[:])
	r.trigger = d.TriggerPC
	return r.trigger, nil
}

// SendSuccess uploads one successful execution's trace to the
// session's case: a one-trace batch under the session's client id and
// next sequence number, so a retried upload is deduplicated. Once the
// case has met its quota it accepts nothing more, and the call still
// succeeds.
func (r *RetryClient) SendSuccess(snap *pt.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == "" {
		return errNoSession
	}
	err := r.do(context.Background(), func(c *Conn) error {
		_, _, err := c.UploadBatch(r.tenant, r.caseID, r.trigger, r.client, r.seq, []*pt.Snapshot{snap})
		return err
	})
	if err == nil {
		r.seq++
	}
	return err
}

// Diagnose publishes the session's case — from the traces the server
// has accepted so far, if its quota is not met — and returns the
// report. While another request is still diagnosing the case, it
// polls for the report.
func (r *RetryClient) Diagnose() (*core.Diagnosis, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == "" {
		return nil, errNoSession
	}
	for kind := "publish"; ; kind = "report" {
		var (
			d    *core.Diagnosis
			done bool
		)
		err := r.do(context.Background(), func(c *Conn) (err error) {
			d, done, err = c.caseReport(kind, r.tenant, r.caseID, r.trigger)
			return err
		})
		if err != nil {
			return nil, err
		}
		if done {
			return d, nil
		}
		time.Sleep(r.cfg.baseDelay())
	}
}

// Case returns the session's tenant and case (zero values before
// ReportFailure succeeds).
func (r *RetryClient) Case() (TenantID, CaseID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == "" {
		return "", 0
	}
	return r.tenant, r.caseID
}

// Status fetches the server's counters, reconnecting as needed.
func (r *RetryClient) Status() (ServerStatus, error) {
	var st ServerStatus
	err := r.Do(context.Background(), func(c *Conn) (err error) {
		st, err = c.Status()
		return err
	})
	return st, err
}
