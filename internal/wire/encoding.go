package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Field-level encoding primitives for frame payloads: unsigned and
// zigzag varints for integers, uvarint-length-prefixed bytes for
// strings, and fixed 8-byte little-endian IEEE 754 bits for float64
// (lossless — a decoded diagnosis must equal the encoded one exactly,
// so floats are never formatted or truncated).

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zigzag-encoded signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a uvarint length followed by its bytes.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendFloat64 appends v as fixed 8-byte little-endian IEEE 754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// ErrDecode is the base error every Dec failure wraps.
var ErrDecode = errors.New("wire: malformed field encoding")

// Dec decodes the primitives AppendX produce, with a sticky error: the
// first malformed field poisons the decoder and every later read
// returns zero values, so call sites check Err once at the end instead
// of after every field. Views returned by Bytes alias the input
// buffer.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns how many undecoded bytes remain.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrDecode, what)
	}
}

// Fail poisons the decoder with a caller-detected violation (an
// implausible count, a semantic bound) so it fails like any malformed
// field.
func (d *Dec) Fail(what string) { d.fail(what) }

// Uvarint decodes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bool decodes one boolean byte.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail("short bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail("bad bool")
		return false
	}
	return v == 1
}

// String decodes a length-prefixed string.
func (d *Dec) String() string {
	return string(d.Bytes())
}

// Bytes decodes a length-prefixed byte run as a view into the input.
func (d *Dec) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("length prefix past end of payload")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// Float64 decodes fixed 8-byte little-endian IEEE 754 bits.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("short float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}
