package proto

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// RetryConfig tunes the reconnecting client.
type RetryConfig struct {
	// MaxAttempts bounds how many times one operation (including the
	// reconnect and session replay it needs) is tried; 0 means 8.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// it doubles per attempt up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout bounds each round trip on the wire, turning a stalled
	// peer into a retryable timeout; 0 means no deadline. Diagnosis
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

func (c RetryConfig) maxAttempts() int {
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

func (c RetryConfig) maxDelay() time.Duration {
	if c.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return c.MaxDelay
}

// RetryClient is a Conn that survives the network: it spools the
// per-connection session state (the failure report and every success
// trace) client-side, reconnects on transport failures with
// exponential backoff and jitter, and replays the spool on the fresh
// connection — so Diagnose converges to the same verdict a fault-free
// conversation would have reached. Server "error" replies are
// deterministic rejections and are returned, not retried.
//
// A RetryClient is safe for use by one goroutine at a time (the same
// contract as Conn).
type RetryClient struct {
	dial func() (net.Conn, error)
	cfg  RetryConfig

	mu        sync.Mutex
	conn      *Conn
	rng       *rand.Rand
	failure   *core.FailureReport
	failSnap  *pt.Snapshot
	trigger   ir.PC
	successes []*pt.Snapshot
	// dialed flips on the first dial attempt; every dial after it is a
	// retry (a reconnect or a re-dial after a failed connect).
	dialed  bool
	retries uint64
}

// NewRetryClient wraps a dial function (called on every connect and
// reconnect) in a retrying session client.
func NewRetryClient(dial func() (net.Conn, error), cfg RetryConfig) *RetryClient {
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = DeriveJitterSeed()
	}
	return &RetryClient{dial: dial, cfg: cfg, rng: rand.New(rand.NewSource(seed)), trigger: ir.NoPC}
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

// Close drops the live connection, if any. The spooled session state
// is kept, so a later operation transparently reconnects.
func (r *RetryClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropConn()
}

// Retries counts every dial after the first — reconnects after a
// dropped transport and re-dials after failed connects. It is the
// client-side degradation counter: zero means the session never saw a
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

// session returns a live connection with the full session state
// replayed: the spooled failure report first, then every spooled
// success trace, exactly as a fault-free conversation would have sent
// them.
func (r *RetryClient) session() (*Conn, error) {
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
	c := NewConn(nc)
	if r.failure != nil {
		if err := r.op(c, func() error {
			pc, err := c.ReportFailure(r.failure, r.failSnap)
			if err == nil {
				r.trigger = pc
			}
			return err
		}); err != nil {
			c.Close()
			return nil, err
		}
		for _, snap := range r.successes {
			if err := r.op(c, func() error { return c.SendSuccess(snap) }); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	r.conn = c
	return c, nil
}

// op runs one round trip under the configured deadline.
func (r *RetryClient) op(c *Conn, fn func() error) error {
	if r.cfg.OpTimeout > 0 {
		c.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
		defer c.SetDeadline(time.Time{})
	}
	return fn()
}

// do retries fn across reconnects until it succeeds, the server
// rejects it deterministically, or the attempt budget is spent.
func (r *RetryClient) do(fn func(c *Conn) error) error {
	var lastErr error
	attempts := r.cfg.maxAttempts()
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.backoff(a)
		}
		c, err := r.session()
		if err != nil {
			var se *ServerError
			if errors.As(err, &se) {
				return err // replay was rejected; retrying cannot help
			}
			lastErr = err
			r.dropConn()
			continue
		}
		if err := r.op(c, func() error { return fn(c) }); err != nil {
			var se *ServerError
			if errors.As(err, &se) {
				return err
			}
			lastErr = err
			r.dropConn()
			continue
		}
		return nil
	}
	return fmt.Errorf("proto: giving up after %d attempts: %w", attempts, lastErr)
}

// backoff sleeps the a-th retry's exponential delay with ±50% jitter.
func (r *RetryClient) backoff(a int) {
	time.Sleep(r.backoffDelay(a))
}

// backoffDelay computes (without sleeping) the a-th retry's jittered
// delay — split out so tests can compare whole schedules.
func (r *RetryClient) backoffDelay(a int) time.Duration {
	d := r.cfg.baseDelay() << uint(a-1)
	if max := r.cfg.maxDelay(); d > max || d <= 0 {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + r.rng.Float64()))
}

// ReportFailure spools the failure report (replacing any previous
// session) and uploads it, reconnecting as needed. The returned PC is
// where the server wants successful executions traced.
func (r *RetryClient) ReportFailure(f *core.FailureReport, snap *pt.Snapshot) (ir.PC, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failure, r.failSnap = f, snap
	r.successes = nil
	r.trigger = ir.NoPC
	r.dropConn()                                    // a new failure starts a new server-side session
	err := r.do(func(c *Conn) error { return nil }) // session() replays the failure
	return r.trigger, err
}

// SendSuccess spools one success trace and uploads it best-effort: on
// a transport failure the trace stays spooled — buffered client-side
// while disconnected — and is replayed on the next reconnect, so the
// call succeeds unless the server deterministically rejects it.
func (r *RetryClient) SendSuccess(snap *pt.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.successes = append(r.successes, snap)
	if r.conn == nil {
		return nil // disconnected: spooled for replay
	}
	c := r.conn
	if err := r.op(c, func() error { return c.SendSuccess(snap) }); err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			// Deterministic rejection (oversize, cap): unspool so the
			// replay won't be rejected too, and surface it.
			r.successes = r.successes[:len(r.successes)-1]
			return err
		}
		r.dropConn() // spooled; the next operation replays it
	}
	return nil
}

// RequestDiagnosis asks for the verdict over the spooled session,
// reconnecting and replaying until the server answers.
func (r *RetryClient) RequestDiagnosis() (*core.Diagnosis, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d *core.Diagnosis
	err := r.do(func(c *Conn) error {
		var err error
		d, err = c.RequestDiagnosis()
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Status fetches the server's counters, reconnecting as needed.
func (r *RetryClient) Status() (ServerStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st ServerStatus
	err := r.do(func(c *Conn) error {
		var err error
		st, err = c.Status()
		return err
	})
	return st, err
}

// TriggerPC returns the trigger the server armed for the current
// session (NoPC before ReportFailure succeeds).
func (r *RetryClient) TriggerPC() ir.PC {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trigger
}
