package pt

import (
	"bytes"
	"fmt"
)

// maxStreamPacket is the largest possible encoded packet: a PSB's
// 6-byte preamble plus two maximal uvarints. While more bytes than
// this remain unscanned, a truncated parse can only mean "the rest of
// the packet is in the next chunk", never "malformed".
const maxStreamPacket = len("\x02\x82\x02\x82\x02\x82") + 10 + 10

// StreamScanner incrementally walks a thread's packet stream while its
// ring bytes are still arriving, mirroring Decode's entry contract
// exactly: a wrapped ring is scanned forward to its first PSB sync
// point (no sync point in the whole ring is an error), and the first
// parsed packet must be a PSB.
//
// The scanner is informational: it counts packets and records the
// first malformed-stream error, but it never gates ingest — admission
// accepts any byte blob and leaves malformed rings to the diagnosis
// stage's degraded mode. Callers re-Scan the same growing buffer after each chunk; the
// scanner resumes from its saved offset, so streaming adds no copies.
type StreamScanner struct {
	wrapped bool
	synced  bool
	first   bool
	pos     int
	packets int
	err     error
}

// Reset re-arms the scanner for a new thread stream.
func (s *StreamScanner) Reset(wrapped bool) {
	*s = StreamScanner{wrapped: wrapped, synced: !wrapped, first: true}
}

// Packets returns how many packets have been parsed so far.
func (s *StreamScanner) Packets() int { return s.packets }

// Err returns the first malformed-stream error, if any. A stream with
// an error stops being scanned but remains perfectly ingestible.
func (s *StreamScanner) Err() error { return s.err }

// Scan advances over data, the thread's full byte prefix received so
// far (each call passes a superset of the last). final marks that data
// is the complete ring: only then are trailing truncated packets and a
// missing sync point reportable as errors.
//
// The loop is a boundary walk, not a decode: ingest only needs packet
// counts and structural validation, so it skips payloads instead of
// materializing packets (the full parse in packetReader costs ~6x as
// much and is what Decode uses when the ring is actually diagnosed).
func (s *StreamScanner) Scan(data []byte, final bool) {
	if s.err != nil {
		return
	}
	if !s.synced {
		idx := bytes.Index(data[s.pos:], psbMagic)
		if idx < 0 {
			if final {
				s.err = fmt.Errorf("pt: wrapped trace has no sync point")
				return
			}
			// The magic may straddle the chunk boundary: keep its last
			// possible prefix in the unscanned window.
			if keep := len(data) - (len(psbMagic) - 1); keep > s.pos {
				s.pos = keep
			}
			return
		}
		s.pos += idx
		s.synced = true
	}
	pos, n := s.pos, len(data)
	// While pos < stop a whole packet is guaranteed decidable: either
	// it parses, or — with maxStreamPacket bytes on hand (or the final
	// ring end) — a truncated parse is genuinely malformed.
	stop := n
	if !final {
		stop = n - maxStreamPacket + 1
		if stop < 0 {
			stop = 0
		}
	}
	packets, first := s.packets, s.first
	for pos < stop {
		kind := PacketKind(data[pos])
		if first && kind != KindPSB {
			s.err = fmt.Errorf("pt: trace does not start with PSB (got %s)", kind)
			break
		}
		switch kind {
		case KindTNT:
			// TNT runs dominate real rings; consume the run in place.
			for {
				if pos+2 > n {
					s.err = errTruncated
				} else if data[pos+1] == 0 {
					s.err = fmt.Errorf("pt: empty TNT payload")
				}
				if s.err != nil {
					break
				}
				pos += 2
				packets++
				if pos >= stop || data[pos] != byte(KindTNT) {
					break
				}
			}
		case KindPSB:
			if pos+len(psbMagic) > n || !hasPrefix(data[pos:], psbMagic) {
				s.err = fmt.Errorf("pt: bad PSB preamble at %d", pos)
				break
			}
			next := skipUvarint(data, pos+len(psbMagic))
			if next >= 0 {
				next = skipUvarint(data, next)
			}
			if next < 0 {
				s.err = errTruncated
				break
			}
			pos = next
			packets++
		case KindTIP, KindCYC:
			// Single-byte argument fast path (small IP deltas and cycle
			// counts dominate); the general skip handles the rest.
			if pos+2 <= n && data[pos+1] < 0x80 {
				pos += 2
				packets++
				break
			}
			next := skipUvarint(data, pos+1)
			if next < 0 {
				s.err = errTruncated
				break
			}
			pos = next
			packets++
		case KindMTC:
			if pos+3 > n {
				s.err = errTruncated
				break
			}
			pos += 3
			packets++
		default:
			s.err = fmt.Errorf("pt: unknown packet 0x%02x at offset %d", byte(kind), pos)
		}
		if s.err != nil {
			break
		}
		first = false
	}
	s.pos, s.packets, s.first = pos, packets, first
}

// skipUvarint returns the index just past the uvarint starting at
// data[p], or -1 when it is truncated or overflows 64 bits — the same
// inputs binary.Uvarint rejects, without decoding the value.
func skipUvarint(data []byte, p int) int {
	n := len(data)
	for i := 0; i < 10; i++ {
		if p+i >= n {
			return -1
		}
		if b := data[p+i]; b < 0x80 {
			if i == 9 && b > 1 {
				return -1
			}
			return p + i + 1
		}
	}
	return -1
}

// SnapshotAssembler is the streaming ingest entry point for a
// snapshot arriving as declared thread sections and bounded chunks:
// the receiver announces each thread (tid, wrapped flag, exact byte
// size) and feeds ring bytes as they arrive off the wire. Bytes are
// appended straight into the thread's final Data slice — allocated
// once, at the declared size — and a StreamScanner walks the packets
// behind the append cursor, so the server is decoding pt packets
// while the snapshot is still in flight.
//
// Structural violations (bytes beyond the declared size, duplicate or
// unfinished threads) are protocol errors and fail assembly; malformed
// packet contents are not — they are counted via ScanErrors and left
// for the diagnosis stage, keeping admission bit-identical to the
// legacy codec.
type SnapshotAssembler struct {
	snap     *Snapshot
	sc       StreamScanner
	noScan   bool
	tid      int
	wrapped  bool
	data     []byte
	arena    []byte
	need     int
	inThread bool
	packets  int
	scanErrs int
}

// NewSnapshotAssembler starts assembling a snapshot captured at the
// given time, scanning packets inline as chunks are fed.
func NewSnapshotAssembler(time int64) *SnapshotAssembler {
	return &SnapshotAssembler{snap: &Snapshot{Threads: map[int]SnapshotThread{}, Time: time}}
}

// NewSnapshotAssemblerUnscanned assembles like NewSnapshotAssembler
// but skips the informational packet scan: declared sizes, thread
// structure and byte accounting are still enforced, only the pt walk
// behind the append cursor is elided. This is the lazy path for
// corroboration rings — snapshots that are hashed and deduplicated on
// arrival and only pt-decoded if their case actually diagnoses —
// where an eager scan of every upload would be redundant work. In
// this mode Packets and ScanErrors stay zero.
func NewSnapshotAssemblerUnscanned(time int64) *SnapshotAssembler {
	a := NewSnapshotAssembler(time)
	a.noScan = true
	return a
}

// UseArena supplies a shared backing buffer for the threads declared
// from here on: each thread's ring is carved out of buf until it runs
// out, after which threads allocate individually. A receiver that
// knows the message's total declared ring bytes up front turns
// hundreds of small per-thread allocations into one. The trade is
// lifetime coupling — any retained ring pins the whole arena — which
// is acceptable for fleet ingest, where a message's snapshots are
// either retained together (a case corroborating) or dropped together
// (duplicates, post-quota uploads).
func (a *SnapshotAssembler) UseArena(buf []byte) { a.arena = buf }

// StartThread declares the next thread section. The previous thread,
// if any, must have received exactly its declared bytes.
func (a *SnapshotAssembler) StartThread(tid int, wrapped bool, size int) error {
	if a.inThread {
		return fmt.Errorf("pt: thread %d declared before thread %d completed (%d bytes short)",
			tid, a.tid, a.need)
	}
	if _, dup := a.snap.Threads[tid]; dup {
		return fmt.Errorf("pt: thread %d declared twice", tid)
	}
	if size < 0 {
		return fmt.Errorf("pt: thread %d declares negative size", tid)
	}
	a.tid, a.wrapped = tid, wrapped
	if size <= len(a.arena) {
		// Carve the thread's ring out of the shared arena. The capped
		// capacity means a section can never grow into its neighbor.
		a.data = a.arena[:0:size]
		a.arena = a.arena[size:]
	} else {
		a.data = make([]byte, 0, size)
	}
	a.need = size
	a.sc.Reset(wrapped)
	a.inThread = true
	if size == 0 {
		a.finishThread()
	}
	return nil
}

// Feed appends one chunk of the current thread's ring bytes and scans
// the newly available packets.
func (a *SnapshotAssembler) Feed(p []byte) error {
	if !a.inThread {
		return fmt.Errorf("pt: %d ring bytes with no thread declared", len(p))
	}
	if len(p) > a.need {
		return fmt.Errorf("pt: thread %d received %d bytes beyond its declared size", a.tid, len(p)-a.need)
	}
	a.data = append(a.data, p...)
	a.need -= len(p)
	if !a.noScan {
		a.sc.Scan(a.data, a.need == 0)
	}
	if a.need == 0 {
		a.finishThread()
	}
	return nil
}

func (a *SnapshotAssembler) finishThread() {
	if a.need == 0 && len(a.data) == 0 {
		// Zero-size threads still get their entry, with nil Data —
		// what the WAL's gob records round-trip empty Data as — so a
		// live snapshot and its recovered copy stay DeepEqual.
		// They are never scanned — in either mode.
		a.snap.Threads[a.tid] = SnapshotThread{Wrapped: a.wrapped}
	} else {
		a.snap.Threads[a.tid] = SnapshotThread{Data: a.data, Wrapped: a.wrapped}
	}
	if !a.noScan {
		a.packets += a.sc.Packets()
		if a.sc.Err() != nil {
			a.scanErrs++
		}
	}
	a.data = nil
	a.inThread = false
}

// Packets returns how many pt packets streamed decoding has parsed.
func (a *SnapshotAssembler) Packets() int { return a.packets }

// ScanErrors returns how many thread streams were malformed. Purely
// observability: assembly still succeeds.
func (a *SnapshotAssembler) ScanErrors() int { return a.scanErrs }

// Finish returns the assembled snapshot; every declared thread must
// have received its full byte count.
func (a *SnapshotAssembler) Finish() (*Snapshot, error) {
	if a.inThread {
		return nil, fmt.Errorf("pt: thread %d incomplete: %d bytes short", a.tid, a.need)
	}
	return a.snap, nil
}
