// Package wire is the framing layer of the snorlax binary wire
// protocol: length-prefixed, CRC32C-checksummed frames carried over
// any byte stream, with buffer pooling and write coalescing so the
// fleet's hot upload path stays near-zero-alloc.
//
// The format deliberately mirrors the durable store's WAL record
// framing (internal/store) — the in-house exemplar for "boring,
// recoverable, length-prefixed": every frame is a fixed 12-byte
// header followed by the payload,
//
//	u32 LE  n      payload byte count (>= 1; payload[0] is the frame type)
//	u32 LE  pcrc   CRC32C (Castagnoli) of the payload
//	u32 LE  hcrc   CRC32C of the first 8 header bytes
//	n bytes payload
//
// The header checksum is what makes the oversize rule trustworthy
// under a hostile or faulty network: a frame whose declared length
// breaches the limit is only treated as a deterministic protocol
// violation when hcrc proves the length field arrived intact
// (ErrFrameTooLarge); a corrupted header is indistinguishable from
// line noise and surfaces as ErrHeaderCorrupt, which readers treat as
// a transport failure — retried, never rejected. A payload checksum
// mismatch (ErrPayloadCorrupt) leaves the stream aligned on the next
// frame boundary, so the connection can resync past a rejected frame.
//
// A connection opens with a 5-byte preamble (magic "SNXW" plus a
// version byte) before its first frame. The version byte is how a
// future format is negotiated; a stream without the magic is not this
// protocol and is rejected (see ReadPreamble).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Magic opens the connection preamble.
const Magic = "SNXW"

// Version1 is the first (and current) binary protocol version,
// carried in the preamble's fifth byte.
const Version1 byte = 0x01

// Frame types (payload[0]).
const (
	// FrameRequest carries a request envelope: every field of the
	// message except snapshot ring bytes, which follow as FrameChunk
	// frames in the order the envelope's thread tables declare.
	FrameRequest byte = 0x01
	// FrameResponse carries one complete response.
	FrameResponse byte = 0x02
	// FrameChunk carries a run of snapshot ring bytes (at most
	// MaxChunkBytes of them), attributed to threads purely by the
	// envelope's declared order: the message's rings form one logical
	// byte stream, so a chunk may span several small threads
	// (coalescing) and a large thread may span several chunks.
	FrameChunk byte = 0x03
)

// headerSize is the fixed frame header length.
const headerSize = 12

// MaxChunkBytes caps one FrameChunk's ring bytes. Streaming receivers
// (the analysis server, the shard router) therefore never hold more
// than this much of a snapshot per frame, no matter how large the
// snapshot is.
const MaxChunkBytes = 128 << 10

// DefaultMaxSnapshotBytes caps the total ring bytes of one uploaded
// snapshot (the semantic tier of the oversize rule). A 64 KB-per-thread
// ring snapshot from a program with a few dozen threads is a few MB;
// the default leaves an order of magnitude of headroom while still
// stopping a runaway client long before the server's memory is at
// stake.
const DefaultMaxSnapshotBytes = 64 << 20

// FrameSlackBytes is how much a single message may exceed the
// snapshot cap (encoding overhead, non-snapshot fields) before the
// frame-limit tier kills the connection.
const FrameSlackBytes = 64 << 10

// Limits is the single home of the protocol's two-tier oversize rule,
// shared verbatim by the analysis server and the shard router so the
// two can never diverge:
//
//   - Semantic oversize — a snapshot whose (checksum-verified) ring
//     bytes exceed SnapshotCap — is a deterministic protocol
//     rejection: the peer gets an "error" reply and the connection
//     keeps serving, with the binary framing resyncing past the
//     rejected message's remaining chunk frames.
//   - A frame-limit breach — one message declaring more than
//     FrameLimit bytes — gets the "error" reply and then the
//     connection closes: a message that large is a protocol violation
//     no honest client produces.
//
// MaxSnapshotBytes follows the server's configuration convention:
// 0 means DefaultMaxSnapshotBytes, negative means unlimited.
type Limits struct {
	MaxSnapshotBytes int64
}

// SnapshotCap resolves the semantic-tier cap; 0 means unlimited.
func (l Limits) SnapshotCap() int64 {
	switch {
	case l.MaxSnapshotBytes < 0:
		return 0
	case l.MaxSnapshotBytes == 0:
		return DefaultMaxSnapshotBytes
	}
	return l.MaxSnapshotBytes
}

// FrameLimit resolves the frame-limit tier: twice the snapshot cap
// plus slack, or 0 (unlimited) when the cap is unlimited.
func (l Limits) FrameLimit() int64 {
	cap := l.SnapshotCap()
	if cap == 0 {
		return 0
	}
	return 2*cap + FrameSlackBytes
}

// castagnoli is the CRC32C table, the same polynomial the WAL uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame checksum function (CRC32C).
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Frame-level errors. Readers distinguish three failure classes:
// a deterministic protocol violation (ErrFrameTooLarge, length field
// proven intact), a recoverable corruption that leaves the stream
// aligned (ErrPayloadCorrupt), and corruption that loses alignment
// (ErrHeaderCorrupt) — the last is handled like any transport failure.
var (
	ErrFrameTooLarge  = errors.New("wire: frame exceeds frame limit")
	ErrHeaderCorrupt  = errors.New("wire: frame header checksum mismatch")
	ErrPayloadCorrupt = errors.New("wire: frame payload checksum mismatch")
)

// bufPool recycles frame payload buffers across connections; steady
// state reads and writes allocate nothing.
var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 4096) }}

func getBuf() []byte { return bufPool.Get().([]byte)[:0] }
func putBuf(b []byte) {
	if cap(b) > 0 {
		bufPool.Put(b[:0])
	}
}

// Writer frames payloads onto an io.Writer, coalescing the frames of
// one message into as few Write calls as possible (batch framing): a
// request envelope plus its chunk frames accumulate in one pooled
// buffer and go out on Flush, or earlier when the buffer passes the
// flush threshold.
type Writer struct {
	w   io.Writer
	buf []byte
}

// flushThreshold bounds the write coalescing buffer.
const flushThreshold = 256 << 10

// NewWriter returns a framing writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: getBuf()}
}

// Preamble writes the binary-protocol preamble (magic + version).
// Call it once, before the first frame.
func (w *Writer) Preamble(version byte) error {
	w.buf = append(w.buf, Magic...)
	w.buf = append(w.buf, version)
	return nil
}

// Frame appends one frame. The payload is copied, so the caller may
// reuse it immediately.
func (w *Writer) Frame(typ byte, payload []byte) error {
	return w.FrameParts(typ, payload)
}

// FrameParts appends one frame whose payload is the concatenation of
// parts — the vectored form of Frame. It exists for the codec's chunk
// coalescing: ring slices from many threads become a single frame (one
// header, one checksum) without being gathered into an intermediate
// buffer first.
func (w *Writer) FrameParts(typ byte, parts ...[]byte) error {
	size := 1
	for _, p := range parts {
		size += len(p)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(size))
	crc := crc32.Update(0, castagnoli, []byte{typ})
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	binary.LittleEndian.PutUint32(hdr[8:12], Checksum(hdr[0:8]))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, typ)
	for _, p := range parts {
		w.buf = append(w.buf, p...)
	}
	if len(w.buf) >= flushThreshold {
		return w.Flush()
	}
	return nil
}

// Raw appends pre-framed bytes verbatim — frames captured by a
// Reader's NextRaw on another connection. The relay path of the shard
// router is built on this pair: checksums computed by the original
// sender cross the hop untouched, so a forwarded message is
// byte-identical to the one received and is never re-framed.
func (w *Writer) Raw(p []byte) error {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= flushThreshold {
		return w.Flush()
	}
	return nil
}

// Flush writes every buffered frame.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Release returns the writer's buffer to the pool. The writer is
// unusable afterwards; call it when the connection closes.
func (w *Writer) Release() {
	putBuf(w.buf)
	w.buf = nil
}

// Reader reads frames from an io.Reader (wrap it in a bufio.Reader —
// the reader issues small header reads). Its payload buffer is pooled
// and reused: the slice returned by Next is valid only until the next
// call.
type Reader struct {
	r     io.Reader
	limit int64
	hdr   [headerSize]byte
	buf   []byte
}

// NewReader returns a framing reader over r enforcing the given frame
// limit (0 = unlimited).
func NewReader(r io.Reader, limit int64) *Reader {
	return &Reader{r: r, limit: limit, buf: getBuf()}
}

// Next reads one frame and returns its type byte and payload (valid
// until the next call). Error classes:
//
//   - ErrFrameTooLarge: the declared length breaches the frame limit
//     and the header checksum proves the length arrived intact — a
//     deterministic protocol violation (reply, then close).
//   - ErrPayloadCorrupt: the payload failed its checksum; the stream
//     is still aligned, so a further Next returns the following frame.
//   - ErrHeaderCorrupt, io errors: the stream is unusable.
func (r *Reader) Next() (typ byte, payload []byte, err error) {
	typ, _, body, err := r.NextRaw()
	if err != nil {
		return 0, nil, err
	}
	return typ, body[1:], nil
}

// NextRaw reads one frame like Next but returns the verbatim 12-byte
// header and the full body (type byte plus payload), both
// checksum-verified and valid until the next call. A relay appends
// hdr then body to a Writer.Raw buffer and the frame crosses the hop
// byte-identically — no re-framing, no second checksum pass on the
// write side.
func (r *Reader) NextRaw() (typ byte, hdr, body []byte, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, nil, err
	}
	if Checksum(r.hdr[0:8]) != binary.LittleEndian.Uint32(r.hdr[8:12]) {
		return 0, nil, nil, ErrHeaderCorrupt
	}
	n := int64(binary.LittleEndian.Uint32(r.hdr[0:4]))
	if n < 1 {
		return 0, nil, nil, fmt.Errorf("%w: zero-length frame", ErrHeaderCorrupt)
	}
	if r.limit > 0 && n > r.limit {
		return 0, nil, nil, ErrFrameTooLarge
	}
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, err
	}
	if Checksum(r.buf) != binary.LittleEndian.Uint32(r.hdr[4:8]) {
		return 0, nil, nil, ErrPayloadCorrupt
	}
	return r.buf[0], r.hdr[:], r.buf, nil
}

// Release returns the reader's buffer to the pool. The reader is
// unusable afterwards.
func (r *Reader) Release() {
	putBuf(r.buf)
	r.buf = nil
}

// ErrNoPreamble rejects a connection whose first bytes are not the
// preamble magic: the peer does not speak this protocol.
var ErrNoPreamble = errors.New("wire: connection sent no preamble")

// ReadPreamble consumes the connection preamble from br and returns
// the declared version. A stream whose first bytes are not the magic
// fails with ErrNoPreamble; one that ends inside the preamble fails
// with the read error (io.EOF before any byte, io.ErrUnexpectedEOF
// after some).
func ReadPreamble(br *bufio.Reader) (version byte, err error) {
	head, err := br.Peek(len(Magic) + 1)
	if n := min(len(head), len(Magic)); string(head[:n]) != Magic[:n] {
		return 0, ErrNoPreamble
	}
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	version = head[len(Magic)]
	br.Discard(len(head)) // cannot fail: Peek buffered these bytes
	return version, nil
}
