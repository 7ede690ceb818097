// Package faultnet injects deterministic network faults — dropped
// connections, stalls, partial writes, and byte corruption — into
// net.Conn traffic, for chaos-testing the diagnosis path end to end.
//
// Faults follow a seeded schedule: each wrapped connection draws from
// its own RNG, keyed by (Config.Seed, side, per-side connection
// sequence), and faults fire only on Write calls, whose count is a
// deterministic function of the bytes the protocol sends. The same
// seed therefore yields the same fault schedule on every run, which is
// what lets chaos tests assert exact outcomes instead of "mostly
// works".
//
// A global MaxFaults budget bounds the chaos: once spent, every
// connection behaves perfectly, so a client that retries its way
// through the schedule is guaranteed to converge.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Drop closes the connection instead of writing.
	Drop Kind = iota
	// Stall sleeps for Config.Stall before writing.
	Stall
	// PartialWrite writes a prefix of the buffer, then closes.
	PartialWrite
	// Corrupt flips one byte of the buffer, writes it, then closes:
	// the peer sees garbage followed by EOF, never a clean resync.
	Corrupt
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case PartialWrite:
		return "partial write"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// ErrInjected marks errors produced by the injector rather than the
// real network.
var ErrInjected = errors.New("faultnet: injected fault")

// Config tunes an Injector.
type Config struct {
	// Seed keys the fault schedule. Equal seeds (and equal traffic)
	// produce identical fault sequences.
	Seed int64
	// FaultEvery is the mean number of Write calls between faults:
	// each write faults with probability 1/FaultEvery. 0 means 4.
	FaultEvery int
	// Stall is how long a Stall fault sleeps. 0 means 10ms.
	Stall time.Duration
	// MaxFaults is the global fault budget across all connections.
	// 0 means 8; negative means unlimited (convergence no longer
	// guaranteed — only for tests that want perpetual chaos).
	MaxFaults int
	// Kinds restricts which faults fire; nil or empty means all.
	Kinds []Kind
}

func (c Config) faultEvery() int {
	if c.FaultEvery <= 0 {
		return 4
	}
	return c.FaultEvery
}

func (c Config) stall() time.Duration {
	if c.Stall <= 0 {
		return 10 * time.Millisecond
	}
	return c.Stall
}

func (c Config) maxFaults() int {
	if c.MaxFaults == 0 {
		return 8
	}
	return c.MaxFaults
}

func (c Config) kinds() []Kind {
	if len(c.Kinds) == 0 {
		return []Kind{Drop, Stall, PartialWrite, Corrupt}
	}
	return c.Kinds
}

// Stats counts the faults an Injector has fired.
type Stats struct {
	Drops         int
	Stalls        int
	PartialWrites int
	Corruptions   int
}

// Total sums all fired faults.
func (s Stats) Total() int {
	return s.Drops + s.Stalls + s.PartialWrites + s.Corruptions
}

// Injector hands out fault-injecting wrappers around connections. One
// injector owns one seeded schedule and one fault budget; wrap every
// connection under test with the same injector.
type Injector struct {
	cfg Config

	mu        sync.Mutex
	remaining int
	unlimited bool
	stats     Stats
	dialSeq   int64 // client-side connections wrapped so far
	acceptSeq int64 // server-side connections wrapped so far
}

// New builds an injector with a fresh budget.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg}
	if m := cfg.maxFaults(); m < 0 {
		in.unlimited = true
	} else {
		in.remaining = m
	}
	return in
}

// Stats returns the faults fired so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Exhausted reports whether the fault budget is spent — from here on
// every wrapped connection is transparent.
func (in *Injector) Exhausted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.unlimited && in.remaining == 0
}

// The two sides get disjoint RNG streams so the racy ordering of
// "dial returns" vs "accept returns" cannot perturb the schedule.
const (
	dialSalt   = 0x636c69656e74 // "client"
	acceptSalt = 0x736572766572 // "server"
)

// Conn wraps a client-side connection in the injector's schedule.
func (in *Injector) Conn(nc net.Conn) net.Conn {
	in.mu.Lock()
	seq := in.dialSeq
	in.dialSeq++
	in.mu.Unlock()
	return in.wrap(nc, dialSalt, seq)
}

// Dialer wraps a dial function so every connection it makes is
// fault-injected.
func (in *Injector) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		nc, err := dial()
		if err != nil {
			return nil, err
		}
		return in.Conn(nc), nil
	}
}

// Listener wraps a listener so every accepted connection is
// fault-injected on the server side.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.in.mu.Lock()
	seq := l.in.acceptSeq
	l.in.acceptSeq++
	l.in.mu.Unlock()
	return l.in.wrap(nc, acceptSalt, seq), nil
}

func (in *Injector) wrap(nc net.Conn, salt, seq int64) net.Conn {
	return &conn{Conn: nc, in: in,
		rng: rand.New(rand.NewSource(in.cfg.Seed ^ salt ^ (seq+1)<<20))}
}

// draw decides whether this write faults, and with which kind. It
// consumes the per-conn RNG unconditionally (the schedule must not
// depend on the budget) but fires only while budget remains.
func (in *Injector) draw(rng *rand.Rand) (Kind, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	hit := rng.Intn(in.cfg.faultEvery()) == 0
	kinds := in.cfg.kinds()
	k := kinds[rng.Intn(len(kinds))]
	if !hit || (!in.unlimited && in.remaining == 0) {
		return 0, false
	}
	if !in.unlimited {
		in.remaining--
	}
	switch k {
	case Drop:
		in.stats.Drops++
	case Stall:
		in.stats.Stalls++
	case PartialWrite:
		in.stats.PartialWrites++
	case Corrupt:
		in.stats.Corruptions++
	}
	return k, true
}

// conn injects faults on the write path only: write counts are a
// deterministic function of protocol traffic, whereas read chunking is
// up to the kernel — injecting there would unseed the schedule.
type conn struct {
	net.Conn
	in *Injector

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	k, fire := c.in.draw(c.rng)
	var pos int
	if fire {
		pos = c.rng.Intn(len(p) + 1)
	}
	c.mu.Unlock()
	if !fire {
		return c.Conn.Write(p)
	}
	switch k {
	case Stall:
		time.Sleep(c.in.cfg.stall())
		return c.Conn.Write(p)
	case Drop:
		c.Conn.Close()
		return 0, ErrInjected
	case PartialWrite:
		n, _ := c.Conn.Write(p[:pos])
		c.Conn.Close()
		return n, ErrInjected
	case Corrupt:
		q := append([]byte(nil), p...)
		if len(q) > 0 {
			if pos == len(q) {
				pos--
			}
			q[pos] ^= 0xFF
		}
		n, err := c.Conn.Write(q)
		// The flipped byte fails the peer's next frame checksum; close
		// so the fault surfaces as one clean transport failure.
		c.Conn.Close()
		return n, err
	}
	return c.Conn.Write(p)
}
