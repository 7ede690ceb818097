// Package store is the fleet server's durable case store: an
// append-only, segmented write-ahead log whose records narrate the
// fleet lifecycle — a program registers, a failure opens a case,
// triggered success traces are accepted one by one, the quota is
// reached, the diagnosis is published, the case closes. Replaying the
// log reconstructs the fleet state deterministically, so a restarted
// server resumes half-filled collections (with every dedup ledger
// intact) and re-serves published reports without re-running
// diagnosis.
//
// The on-disk format is deliberately boring: each record is a frame of
// a little-endian uint32 payload length, a little-endian uint32 CRC32C
// (Castagnoli) of the payload, and a self-contained gob payload.
// Segments are cut at a size threshold; a periodic snapshot of the
// replayed state, written at a segment boundary, lets compaction
// delete every earlier segment. Recovery tolerates torn writes,
// truncated tails and corrupt records by truncating the log at the
// first bad frame — everything before it is kept, everything after it
// (necessarily unacknowledged) is dropped and counted in metrics.
//
// A state directory holds:
//
//	wal-<first LSN>.log    segments: record frames, LSN order
//	state-<last LSN>.snap  the snapshot: one frame of the gob state,
//	                       module texts left out
//	tenants.log            each program's registration record once,
//	                       in registration order, in record frames
//
// tenants.log is append-only and never compacted. A snapshot appends
// the programs registered since the last one, fsyncs the file, and
// records how many of its bytes it covers; the programs of the
// snapshot's state take their texts from those records, in order.
// Recovery takes the newest snapshot whose prefix scans clean, and
// cuts tenants.log back to that prefix. A snapshot written before
// tenants.log existed covers 0 bytes and holds its texts inline.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// RecordType discriminates the fleet lifecycle events the log records.
type RecordType uint8

const (
	// RecProgramRegistered creates a tenant: Tenant is the module
	// fingerprint, ModuleText the canonical IR the fingerprint is of.
	RecProgramRegistered RecordType = iota + 1
	// RecCaseOpened opens a diagnosis case under Tenant: Case is the
	// tenant-scoped case number, TriggerPC the failure PC the
	// collection directive arms, Want the success-trace quota, and
	// Failure/Snapshot the failing trace of record.
	RecCaseOpened
	// RecTraceAccepted admits one success snapshot toward the case's
	// quota. Client and Seq are the uploader's dedup-ledger entry: on
	// replay the ledger is restored to each client's highest accepted
	// sequence number, so batches replayed across a server restart
	// still deduplicate instead of double-counting.
	RecTraceAccepted
	// RecQuotaReached disarms the case's collection directive.
	RecQuotaReached
	// RecReportPublished stores the diagnosis verdict (or, in DiagErr,
	// why diagnosing failed), so a restarted server re-serves the
	// report from disk without re-running the analysis.
	RecReportPublished
	// RecCaseClosed marks the case fully done.
	RecCaseClosed
)

func (t RecordType) String() string {
	switch t {
	case RecProgramRegistered:
		return "program-registered"
	case RecCaseOpened:
		return "case-opened"
	case RecTraceAccepted:
		return "trace-accepted"
	case RecQuotaReached:
		return "quota-reached"
	case RecReportPublished:
		return "report-published"
	case RecCaseClosed:
		return "case-closed"
	}
	return fmt.Sprintf("record-type-%d", uint8(t))
}

// Record is one logged state transition. Which fields are meaningful
// depends on Type (see the RecordType constants); unused fields stay
// zero and cost nothing on the wire beyond gob's field skipping.
type Record struct {
	Type   RecordType
	Tenant string
	Case   uint64

	// RecProgramRegistered.
	ModuleText string

	// RecCaseOpened.
	TriggerPC ir.PC
	Want      int
	Failure   *core.FailureReport

	// RecCaseOpened (the failing trace) and RecTraceAccepted (the
	// accepted success trace).
	Snapshot *pt.Snapshot

	// RecTraceAccepted.
	Client string
	Seq    uint64

	// RecReportPublished: exactly one of Diagnosis and DiagErr is set.
	Diagnosis *core.Diagnosis
	DiagErr   string
}

// Frame layout: uint32 LE payload length, uint32 LE CRC32C of the
// payload, then the payload — a self-contained gob stream per record,
// so any record decodes without the ones before it.
const frameHeaderBytes = 8

// maxRecordBytes is a sanity cap on one record's payload: anything
// larger is treated as a torn length prefix, not a real record. It is
// far above any legitimate record (a snapshot is bounded by the
// protocol's upload caps) and far below what a corrupt 4-byte length
// could ask the decoder to chew on.
const maxRecordBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordEncoder frames records with one gob encoder that has already
// sent Record's type descriptors, so each encode writes only the
// record's value message behind a saved copy of the descriptors. A
// fresh gob encoder per record re-derives and re-sends the ~100
// descriptors of Record's type tree, ~115 µs a record, which costs
// more than encoding a trace-sized record. The frames are the same
// bytes either way. Not safe for concurrent use.
type recordEncoder struct {
	buf   bytes.Buffer
	enc   *gob.Encoder // nil until primed, and again after a failed encode
	types []byte       // the descriptors a fresh encoder sends first
}

// prime starts a gob encoder and sends it Record's type descriptors.
// A fresh encoder's stream for a record is the descriptors, then the
// value message; encoding an empty record twice tells them apart,
// because the second encoding is the value message alone. Record
// holds no interfaces, so the descriptors do not depend on the value.
func (e *recordEncoder) prime() error {
	e.buf.Reset()
	enc := gob.NewEncoder(&e.buf)
	if err := enc.Encode(&Record{}); err != nil {
		return fmt.Errorf("store: priming record encoder: %w", err)
	}
	first := e.buf.Len()
	if err := enc.Encode(&Record{}); err != nil {
		return fmt.Errorf("store: priming record encoder: %w", err)
	}
	e.enc, e.types = enc, bytes.Clone(e.buf.Bytes()[:2*first-e.buf.Len()])
	return nil
}

// encode renders one record as a framed byte slice ready to be
// appended to a segment. The slice is the encoder's buffer: it is
// valid until the next encode.
func (e *recordEncoder) encode(rec *Record) ([]byte, error) {
	if e.enc == nil {
		if err := e.prime(); err != nil {
			return nil, err
		}
	}
	e.buf.Reset()
	e.buf.Write(make([]byte, frameHeaderBytes)) // header placeholder
	e.buf.Write(e.types)
	if err := e.enc.Encode(rec); err != nil {
		e.enc = nil // its state is unknown after a failure
		return nil, fmt.Errorf("store: encoding %s record: %w", rec.Type, err)
	}
	frame := e.buf.Bytes()
	body := frame[frameHeaderBytes:]
	if len(body) > maxRecordBytes {
		return nil, fmt.Errorf("store: %s record payload is %d bytes (cap %d)", rec.Type, len(body), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
	return frame, nil
}

// encodeRecord frames one record with a fresh encoder.
func encodeRecord(rec *Record) ([]byte, error) {
	var e recordEncoder
	return e.encode(rec)
}

// ScannedRecord is one decoded record plus the offset just past its
// frame, so callers can map records to byte positions — recovery
// truncates there, and the crash harness cuts there.
type ScannedRecord struct {
	Record *Record
	// End is the offset of the first byte after this record's frame.
	End int
}

// ScanSegment parses the record frames in data, stopping at the first
// torn or corrupt frame: a short header, a length past the buffer or
// the sanity cap, a CRC mismatch, or an undecodable payload. It
// returns every complete record before the bad point and the clean
// length — the offset the segment should be truncated to. A fully
// clean segment returns clean == len(data).
func ScanSegment(data []byte) (recs []ScannedRecord, clean int) {
	off := 0
	for {
		if len(data)-off < frameHeaderBytes {
			return recs, off // torn or absent header
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes || n > len(data)-off-frameHeaderBytes {
			return recs, off // torn payload or garbage length
		}
		body := data[off+frameHeaderBytes : off+frameHeaderBytes+n]
		if crc32.Checksum(body, crcTable) != sum {
			return recs, off // bit rot or a torn interior write
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			// The checksum matched but the payload is not a record —
			// possible only if the corruption happened before the CRC
			// was computed. Same remedy: cut here.
			return recs, off
		}
		off += frameHeaderBytes + n
		recs = append(recs, ScannedRecord{Record: &rec, End: off})
	}
}
