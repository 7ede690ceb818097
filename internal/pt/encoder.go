package pt

import (
	"sort"

	"snorlax/internal/ir"
	"snorlax/internal/vm"
)

// Config controls the simulated tracer.
type Config struct {
	// BufBytes is the per-thread ring capacity (default 64 KB, the
	// paper's configuration). It bounds how much history a thread
	// keeps; it is not allocated up front. A ring holds only what was
	// written until a write would pass BufBytes, and allocates its
	// full BufBytes then.
	BufBytes int
	// MTCGranularityNS is the coarse clock quantum carried by MTC
	// packets (default 1024 ns).
	MTCGranularityNS int64
	// EnableCYC enables fine-grained CYC delta packets before each
	// control packet (the paper's "highest possible frequency"
	// configuration). Default on; set DisableCYC to turn off.
	DisableCYC bool
	// CYCResolutionNS is the resolution of CYC deltas (default 64 ns):
	// decoded timestamps carry this uncertainty.
	CYCResolutionNS int64
	// PSBPeriodBytes is the number of trace bytes between PSB sync
	// points (default 4096). A wrapped ring buffer smaller than this
	// period may retain no sync point and become undecodable, so
	// keep it at most a quarter of BufBytes.
	PSBPeriodBytes int
	// CostPerBytePS is the virtual cost of writing one trace byte, in
	// picoseconds (default 720). This models the memory bandwidth the
	// hardware tracer consumes and is the source of the ~1% overhead
	// of Figure 8.
	CostPerBytePS int64
	// SwitchPerThreadPS is the extra per-context-switch cost in
	// picoseconds per live thread (default 8000), modeling per-thread
	// buffer management in the driver — the source of the mild
	// overhead growth of Figure 9.
	SwitchPerThreadPS int64
}

func (c Config) withDefaults() Config {
	if c.BufBytes == 0 {
		c.BufBytes = 64 * 1024
	}
	if c.MTCGranularityNS == 0 {
		c.MTCGranularityNS = 1024
	}
	if c.CYCResolutionNS == 0 {
		c.CYCResolutionNS = 64
	}
	if c.PSBPeriodBytes == 0 {
		c.PSBPeriodBytes = 4096
	}
	if c.PSBPeriodBytes > c.BufBytes/4 && c.BufBytes >= 64 {
		c.PSBPeriodBytes = c.BufBytes / 4
	}
	if c.CostPerBytePS == 0 {
		c.CostPerBytePS = 720
	}
	if c.SwitchPerThreadPS == 0 {
		c.SwitchPerThreadPS = 8000
	}
	return c
}

// Stats aggregates what the tracer wrote; the §5 trace statistics
// experiment reports these.
type Stats struct {
	Packets       map[PacketKind]int64
	Bytes         int64
	TimingBytes   int64
	ControlEvents int64
}

// TimingFraction returns the share of buffer bytes used by timing
// packets (the paper reports ≈49%).
func (s Stats) TimingFraction() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.TimingBytes) / float64(s.Bytes)
}

// Encoder is the simulated tracer. It implements vm.TraceSink; attach
// it to a vm.Config to trace an execution. The event path does no map
// lookup: per-thread state is indexed by tid, and the per-kind packet
// counts sit in an array that Stats turns into a map.
type Encoder struct {
	cfg Config
	// threads is indexed by tid; nil for a tid with no event yet.
	threads []*threadEnc
	// The running Stats: bytes, timing bytes and control events
	// written, and the packets written per kind.
	bytes, timingBytes, controlEvents int64
	packets                           [numKinds]int64
	// costAccumPS accumulates sub-nanosecond costs.
	costAccumPS int64
	scratch     []byte
}

// numKinds sizes the per-kind packet counts (kinds are 1..KindCYC).
const numKinds = int(KindCYC) + 1

type threadEnc struct {
	ring        *ring
	tntBits     byte
	tntCount    int
	lastCoarse  uint16
	haveCoarse  bool
	lastCycTime int64
	bytesSince  int
	lastPC      ir.PC
	lastTime    int64
}

// NewEncoder returns an Encoder with the given configuration.
func NewEncoder(cfg Config) *Encoder {
	return &Encoder{cfg: cfg.withDefaults()}
}

func (e *Encoder) thread(tid int) *threadEnc {
	if tid < len(e.threads) {
		if t := e.threads[tid]; t != nil {
			return t
		}
	} else {
		e.threads = append(e.threads, make([]*threadEnc, tid+1-len(e.threads))...)
	}
	t := &threadEnc{ring: newRing(e.cfg.BufBytes)}
	e.threads[tid] = t
	return t
}

// Event implements vm.TraceSink.
func (e *Encoder) Event(ev vm.TraceEvent) int64 {
	switch ev.Kind {
	case vm.EvThreadStart:
		t := e.thread(ev.Tid)
		e.emitPSB(t, int64(ev.To), ev.Time)
	case vm.EvCondBranch:
		t := e.thread(ev.Tid)
		e.control(t, ev)
		bit := byte(0)
		if ev.Taken {
			bit = 1
		}
		t.tntBits |= bit << uint(t.tntCount)
		t.tntCount++
		if t.tntCount == 7 {
			e.flushTNT(t)
		}
	case vm.EvUncondBranch, vm.EvCall:
		// Statically inferable: hardware emits nothing.
		e.thread(ev.Tid).lastPC = ev.From
		e.controlEvents++
	case vm.EvIndirectCall, vm.EvRet:
		t := e.thread(ev.Tid)
		e.control(t, ev)
		e.flushTNT(t)
		e.write(t, KindTIP, appendTIP(e.scratch[:0], int64(ev.To)))
	case vm.EvThreadEnd:
		// Close the thread's final timing window: the tracer observes
		// the exit (PGD), so instructions after the last control
		// packet are bounded by the exit time, not the snapshot time.
		t := e.thread(ev.Tid)
		e.flushTNT(t)
		e.emitPSB(t, int64(ev.From), ev.Time)
	case vm.EvContextSwitch, vm.EvPause:
		// Resume and pause points: sync the thread's stream with a
		// full PC + timestamp (the PGE/PGD analogues) so the decoder
		// can re-anchor its clock across packet-free straight-line
		// code and close the window of trailing instructions.
		// Per-thread buffer management cost grows with the number of
		// live threads.
		t := e.thread(ev.Tid)
		e.flushTNT(t)
		e.emitPSB(t, int64(ev.To), ev.Time)
		if ev.Kind == vm.EvContextSwitch && ev.Switched {
			return e.chargePS(e.cfg.SwitchPerThreadPS * int64(ev.Live))
		}
	}
	return e.chargePS(0)
}

// control emits timing packets for a control event and accounts for
// PSB periodicity.
func (e *Encoder) control(t *threadEnc, ev vm.TraceEvent) {
	e.controlEvents++
	t.lastPC = ev.From
	t.lastTime = ev.Time
	coarse := uint16(uint64(ev.Time/e.cfg.MTCGranularityNS) & 0xffff)
	if !t.haveCoarse || coarse != t.lastCoarse {
		e.write(t, KindMTC, appendMTC(e.scratch[:0], coarse))
		t.lastCoarse = coarse
		t.haveCoarse = true
	}
	if !e.cfg.DisableCYC {
		delta := (ev.Time - t.lastCycTime) / e.cfg.CYCResolutionNS
		if delta > 0 {
			e.write(t, KindCYC, appendCYC(e.scratch[:0], uint64(delta)))
			t.lastCycTime += delta * e.cfg.CYCResolutionNS
		}
	}
	if t.bytesSince >= e.cfg.PSBPeriodBytes {
		e.flushTNT(t)
		e.emitPSB(t, int64(ev.From), ev.Time)
	}
}

func (e *Encoder) emitPSB(t *threadEnc, pc int64, time int64) {
	e.write(t, KindPSB, appendPSB(e.scratch[:0], pc, time))
	t.bytesSince = 0
	t.lastCycTime = time
	t.haveCoarse = false
}

func (e *Encoder) flushTNT(t *threadEnc) {
	if t.tntCount == 0 {
		return
	}
	e.write(t, KindTNT, appendTNT(e.scratch[:0], t.tntBits, t.tntCount))
	t.tntBits, t.tntCount = 0, 0
}

func (e *Encoder) write(t *threadEnc, kind PacketKind, buf []byte) {
	t.ring.write(buf)
	t.bytesSince += len(buf)
	e.scratch = buf[:0]
	e.packets[kind]++
	e.bytes += int64(len(buf))
	if kind == KindMTC || kind == KindCYC {
		e.timingBytes += int64(len(buf))
	}
	e.costAccumPS += int64(len(buf)) * e.cfg.CostPerBytePS
}

// chargePS converts accumulated picosecond costs into whole
// nanoseconds to charge the VM.
func (e *Encoder) chargePS(extra int64) int64 {
	e.costAccumPS += extra
	ns := e.costAccumPS / 1000
	e.costAccumPS -= ns * 1000
	return ns
}

// Stats returns encoding statistics so far. Packets holds the kinds
// written at least once.
func (e *Encoder) Stats() Stats {
	st := Stats{Packets: make(map[PacketKind]int64), Bytes: e.bytes,
		TimingBytes: e.timingBytes, ControlEvents: e.controlEvents}
	for k, n := range e.packets {
		if n > 0 {
			st.Packets[PacketKind(k)] = n
		}
	}
	return st
}

// Snapshot captures the current ring contents of every traced thread,
// oldest-first — what the driver saves when a failure occurs or a
// trigger PC executes.
type Snapshot struct {
	// Threads maps thread id to its linearized trace bytes.
	Threads map[int]SnapshotThread
	// Time is the virtual time at which the snapshot was taken, if
	// recorded by the driver.
	Time int64
}

// SnapshotThread is one thread's captured trace.
type SnapshotThread struct {
	Data    []byte
	Wrapped bool
}

// Tids returns the snapshot's thread ids in ascending order.
func (s *Snapshot) Tids() []int {
	tids := make([]int, 0, len(s.Threads))
	for tid := range s.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return tids
}

// Snapshot captures all per-thread rings. Pending TNT bits are
// flushed first so the captured streams are self-contained.
func (e *Encoder) Snapshot() *Snapshot {
	out := &Snapshot{Threads: make(map[int]SnapshotThread, len(e.threads))}
	for tid, t := range e.threads {
		if t == nil {
			continue
		}
		e.flushTNT(t)
		data, wrapped := t.ring.snapshot()
		out.Threads[tid] = SnapshotThread{Data: data, Wrapped: wrapped}
	}
	return out
}
