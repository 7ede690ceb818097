package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// frameBytes encodes one frame (header + type + payload) standalone.
func frameBytes(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Frame(typ, payload); err != nil {
		t.Fatalf("Frame: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	w.Release()
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil, // empty payload: the frame is just its type byte
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte("ring bytes "), 20_000), // > flushThreshold
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Preamble(Version1); err != nil {
		t.Fatalf("Preamble: %v", err)
	}
	types := []byte{FrameRequest, FrameChunk, FrameResponse, FrameChunk, FrameRequest}
	for i, p := range payloads {
		if err := w.Frame(types[i], p); err != nil {
			t.Fatalf("Frame %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	w.Release()

	br := bufio.NewReader(&buf)
	v, err := ReadPreamble(br)
	if err != nil || v != Version1 {
		t.Fatalf("ReadPreamble = (%#x, %v), want (%#x, nil)", v, err, Version1)
	}
	r := NewReader(br, 0)
	defer r.Release()
	for i, p := range payloads {
		typ, got, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if typ != types[i] {
			t.Fatalf("frame %d type = %#x, want %#x", i, typ, types[i])
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d payload mismatch: %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after last frame = %v, want io.EOF", err)
	}
}

// TestTruncatedAtEveryPrefix feeds the reader every proper prefix of a
// valid two-frame stream: none may succeed past the frames the prefix
// fully contains, and every failure must be a clean io error (EOF
// before any header byte, ErrUnexpectedEOF mid-frame) or a checksum
// error — never a wrong payload.
func TestTruncatedAtEveryPrefix(t *testing.T) {
	full := append(frameBytes(t, FrameRequest, []byte("first frame")),
		frameBytes(t, FrameChunk, []byte("second"))...)
	first := len(full) - len(frameBytes(t, FrameChunk, []byte("second")))
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]), 0)
		wantFrames := 0
		if cut >= first {
			wantFrames = 1
		}
		for i := 0; i < wantFrames; i++ {
			if _, _, err := r.Next(); err != nil {
				t.Fatalf("cut=%d: frame %d unexpectedly failed: %v", cut, i, err)
			}
		}
		_, _, err := r.Next()
		switch {
		case err == nil:
			t.Fatalf("cut=%d: truncated frame read succeeded", cut)
		case err == io.EOF, err == io.ErrUnexpectedEOF:
		default:
			t.Fatalf("cut=%d: err = %v, want EOF class", cut, err)
		}
		r.Release()
	}
}

// TestEveryByteFlipDetected flips each byte of a valid frame in turn;
// every flip must surface as an error — a single corrupted byte can
// never yield a successful read.
func TestEveryByteFlipDetected(t *testing.T) {
	orig := frameBytes(t, FrameRequest, []byte("checksummed payload"))
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		r := NewReader(bytes.NewReader(mut), 0)
		_, _, err := r.Next()
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		switch {
		case i < headerSize && !errors.Is(err, ErrHeaderCorrupt):
			t.Fatalf("flip at header byte %d: err = %v, want ErrHeaderCorrupt", i, err)
		case i >= headerSize && !errors.Is(err, ErrPayloadCorrupt) && err != io.ErrUnexpectedEOF:
			// Flipping a payload byte breaks pcrc; flipping nothing
			// else can reach here.
			t.Fatalf("flip at payload byte %d: err = %v, want ErrPayloadCorrupt", i, err)
		}
		r.Release()
	}
}

// TestOversizeFrame pins the two-tier trust rule: a limit breach only
// counts as the deterministic ErrFrameTooLarge when the header
// checksum proves the length field intact; a breach declared by a
// corrupted header is ErrHeaderCorrupt (transport class).
func TestOversizeFrame(t *testing.T) {
	const limit = 1024
	mk := func(n uint32, corruptHdr bool) []byte {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], n)
		binary.LittleEndian.PutUint32(hdr[4:8], 0xDEAD)
		binary.LittleEndian.PutUint32(hdr[8:12], Checksum(hdr[0:8]))
		if corruptHdr {
			hdr[0] ^= 0xFF
		}
		return hdr[:]
	}
	if _, _, err := NewReader(bytes.NewReader(mk(limit+1, false)), limit).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("intact oversize header: err = %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := NewReader(bytes.NewReader(mk(limit+1, true)), limit).Next(); !errors.Is(err, ErrHeaderCorrupt) {
		t.Fatalf("corrupt oversize header: err = %v, want ErrHeaderCorrupt", err)
	}
	// At the limit exactly: not oversize (payload is then truncated here).
	if _, _, err := NewReader(bytes.NewReader(mk(limit, false)), limit).Next(); errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame at exactly the limit rejected as oversize")
	}
	// Unlimited reader never trips the limit tier.
	if _, _, err := NewReader(bytes.NewReader(mk(1<<31-1, false)), 0).Next(); errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("unlimited reader enforced a frame limit")
	}
}

func TestZeroLengthFrame(t *testing.T) {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[8:12], Checksum(hdr[0:8]))
	_, _, err := NewReader(bytes.NewReader(hdr[:]), 0).Next()
	if !errors.Is(err, ErrHeaderCorrupt) {
		t.Fatalf("zero-length frame: err = %v, want ErrHeaderCorrupt", err)
	}
}

// TestResyncAfterPayloadCorruption is the property the binary rewrite
// exists for: a payload checksum failure leaves the stream aligned,
// so the next Next returns the following frame intact.
func TestResyncAfterPayloadCorruption(t *testing.T) {
	bad := frameBytes(t, FrameChunk, bytes.Repeat([]byte{0x55}, 300))
	bad[headerSize+37] ^= 0x80 // corrupt a payload byte, header intact
	good := frameBytes(t, FrameResponse, []byte("survivor"))
	r := NewReader(bytes.NewReader(append(bad, good...)), 0)
	defer r.Release()
	if _, _, err := r.Next(); !errors.Is(err, ErrPayloadCorrupt) {
		t.Fatalf("first frame: err = %v, want ErrPayloadCorrupt", err)
	}
	typ, payload, err := r.Next()
	if err != nil || typ != FrameResponse || string(payload) != "survivor" {
		t.Fatalf("resync read = (%#x, %q, %v), want the survivor frame", typ, payload, err)
	}
}

func TestReadPreamble(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		version byte
		wantErr error
		left    string // unconsumed remainder
	}{
		{name: "binary v1", in: Magic + "\x01rest", version: 1, left: "rest"},
		{name: "future version", in: Magic + "\x7f", version: 0x7f},
		{name: "no preamble", in: "\x2c\xff\x81not-snxw", wantErr: ErrNoPreamble},
		{name: "short non-magic prefix", in: "\x2c", wantErr: ErrNoPreamble},
		{name: "empty stream", in: "", wantErr: io.EOF},
		{name: "magic but no version byte", in: Magic, wantErr: io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(strings.NewReader(tc.in))
			v, err := ReadPreamble(br)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("ReadPreamble = (%#x, %v), want %v", v, err, tc.wantErr)
				}
				return
			}
			if err != nil || v != tc.version {
				t.Fatalf("ReadPreamble = (%#x, %v), want (%#x, nil)", v, err, tc.version)
			}
			rest, _ := io.ReadAll(br)
			if string(rest) != tc.left {
				t.Fatalf("remainder = %q, want %q", rest, tc.left)
			}
		})
	}
}

func TestLimits(t *testing.T) {
	cases := []struct {
		max        int64
		cap, limit int64
	}{
		{0, DefaultMaxSnapshotBytes, 2*DefaultMaxSnapshotBytes + FrameSlackBytes},
		{-1, 0, 0},
		{1 << 20, 1 << 20, 2<<20 + FrameSlackBytes},
	}
	for _, tc := range cases {
		l := Limits{MaxSnapshotBytes: tc.max}
		if got := l.SnapshotCap(); got != tc.cap {
			t.Errorf("Limits{%d}.SnapshotCap() = %d, want %d", tc.max, got, tc.cap)
		}
		if got := l.FrameLimit(); got != tc.limit {
			t.Errorf("Limits{%d}.FrameLimit() = %d, want %d", tc.max, got, tc.limit)
		}
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	var b []byte
	uvals := []uint64{0, 1, 127, 128, 1<<32 - 1, math.MaxUint64}
	ivals := []int64{0, 1, -1, 63, -64, math.MinInt64, math.MaxInt64}
	fvals := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	svals := []string{"", "a", "snapshot ring \x00\xff bytes", strings.Repeat("λ", 300)}
	for _, v := range uvals {
		b = AppendUvarint(b, v)
	}
	for _, v := range ivals {
		b = AppendVarint(b, v)
	}
	for _, v := range fvals {
		b = AppendFloat64(b, v)
	}
	for _, v := range svals {
		b = AppendString(b, v)
	}
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, []byte{1, 2, 3})

	d := NewDec(b)
	for i, want := range uvals {
		if got := d.Uvarint(); got != want {
			t.Fatalf("uvarint %d = %d, want %d", i, got, want)
		}
	}
	for i, want := range ivals {
		if got := d.Varint(); got != want {
			t.Fatalf("varint %d = %d, want %d", i, got, want)
		}
	}
	for i, want := range fvals {
		got := d.Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float %d = %v (bits %#x), want %v", i, got, math.Float64bits(got), want)
		}
	}
	for i, want := range svals {
		if got := d.String(); got != want {
			t.Fatalf("string %d = %q, want %q", i, got, want)
		}
	}
	if !d.Bool() || d.Bool() {
		t.Fatalf("bool round-trip failed")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error after clean stream: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

func TestDecoderSticksOnError(t *testing.T) {
	// A bool byte > 1 is invalid; everything after the first failure
	// returns zero values and the first error sticks.
	b := AppendUvarint([]byte{0x02}, 7)
	d := NewDec(b)
	if d.Bool() {
		t.Fatalf("invalid bool decoded as true")
	}
	if err := d.Err(); err == nil {
		t.Fatalf("invalid bool did not set the decoder error")
	}
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("decode after error = %d, want 0", got)
	}

	// Truncated string length: sticky error, no panic.
	d = NewDec(AppendUvarint(nil, 1000))
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("truncated string = %q, err = %v", s, d.Err())
	}
}

// TestFramePartsMatchesFrame pins the vectored writer to the simple
// one: a frame built from any split of a payload must be byte-for-byte
// the frame built from the whole payload, so receivers cannot tell how
// the sender's gather list happened to be shaped.
func TestFramePartsMatchesFrame(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	want := frameBytes(t, FrameChunk, payload)
	splits := [][]int{
		{},                  // no parts beyond the implicit whole
		{0},                 // leading empty part
		{len(payload)},      // trailing empty part
		{1, 2, 3, 5, 8, 13}, // many tiny parts
		{len(payload) / 2},  // even halves
	}
	for _, cuts := range splits {
		var parts [][]byte
		prev := 0
		for _, c := range cuts {
			parts = append(parts, payload[prev:c])
			prev = c
		}
		parts = append(parts, payload[prev:])
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.FrameParts(FrameChunk, parts...); err != nil {
			t.Fatalf("FrameParts(%v): %v", cuts, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		w.Release()
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("FrameParts(%v) produced different bytes than Frame", cuts)
		}
	}
}

// TestNextRawRelaysVerbatim reads a frame with NextRaw and re-emits
// hdr+body through Raw on a second writer: the relayed stream must be
// byte-identical to the original and decode to the same frame — the
// zero-copy relay invariant the shard router depends on (checksums
// cross the hop untouched).
func TestNextRawRelaysVerbatim(t *testing.T) {
	payload := bytes.Repeat([]byte("ring "), 1000)
	original := append(frameBytes(t, FrameRequest, payload),
		frameBytes(t, FrameChunk, []byte("tail"))...)

	r := NewReader(bytes.NewReader(original), 0)
	defer r.Release()
	var relayed bytes.Buffer
	w := NewWriter(&relayed)
	for i := 0; i < 2; i++ {
		typ, hdr, body, err := r.NextRaw()
		if err != nil {
			t.Fatalf("NextRaw %d: %v", i, err)
		}
		if want := []byte{FrameRequest, FrameChunk}[i]; typ != want {
			t.Fatalf("NextRaw %d type = %#x, want %#x", i, typ, want)
		}
		if len(hdr) != 12 || body[0] != typ {
			t.Fatalf("NextRaw %d: hdr %d bytes, body[0] = %#x", i, len(hdr), body[0])
		}
		if err := w.Raw(append(append([]byte(nil), hdr...), body...)); err != nil {
			t.Fatalf("Raw %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	w.Release()
	if !bytes.Equal(relayed.Bytes(), original) {
		t.Fatalf("relayed stream differs from original (%d vs %d bytes)", relayed.Len(), len(original))
	}

	// And the relayed copy still decodes cleanly.
	r2 := NewReader(bytes.NewReader(relayed.Bytes()), 0)
	defer r2.Release()
	typ, got, err := r2.Next()
	if err != nil || typ != FrameRequest || !bytes.Equal(got, payload) {
		t.Fatalf("relayed frame decode = (%#x, %d bytes, %v)", typ, len(got), err)
	}
	if typ, got, err = r2.Next(); err != nil || typ != FrameChunk || string(got) != "tail" {
		t.Fatalf("relayed chunk decode = (%#x, %q, %v)", typ, got, err)
	}
}

// TestNextRawOversizeKeepsHeader pins the relay-side oversize
// contract: NextRaw must classify an over-limit frame as
// ErrFrameTooLarge (the router replies, then closes) rather than
// reading it, exactly like Next.
func TestNextRawOversizeKeepsHeader(t *testing.T) {
	big := frameBytes(t, FrameRequest, bytes.Repeat([]byte{0xCC}, 4096))
	r := NewReader(bytes.NewReader(big), 128)
	defer r.Release()
	if _, _, _, err := r.NextRaw(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("NextRaw over limit = %v, want ErrFrameTooLarge", err)
	}
}
