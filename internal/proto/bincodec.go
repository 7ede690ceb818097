package proto

import (
	"fmt"
	"sync"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pattern"
	"snorlax/internal/pt"
	"snorlax/internal/statdiag"
	"snorlax/internal/wire"
)

// This file is the protocol's message codec: explicit per-field
// encoding (zigzag varints, length-prefixed strings, fixed 8-byte
// float bits) over the wire package's CRC32C frames. A request travels
// as one envelope frame — every field except snapshot ring bytes, plus
// a declared size table per snapshot — followed by bounded chunk
// frames carrying the rings, so a receiver can assemble the rings
// (and a router can relay them) while the snapshot is still arriving.
// Responses are always a single frame.

// Request/Response kind codes. Unknown kinds (client-controlled
// strings) travel as kindOther plus the literal string, so the
// server's "unknown request" rejection can quote it.
const kindOther = 0xFF

var reqKindCodes = map[string]uint64{
	"status": 1, "register": 2, "fleet-failure": 3, "directives": 4,
	"batch": 5, "report": 6, "publish": 7,
}

var respKindCodes = map[string]uint64{
	"status": 1, "error": 2, "registered": 3, "case": 4, "directives": 5,
	"batch": 6, "report": 7,
}

var reqKindNames = invertKinds(reqKindCodes)
var respKindNames = invertKinds(respKindCodes)

func invertKinds(codes map[string]uint64) map[uint64]string {
	names := make(map[uint64]string, len(codes))
	for name, code := range codes {
		names[code] = name
	}
	return names
}

func appendKind(b []byte, codes map[string]uint64, kind string) []byte {
	if code, ok := codes[kind]; ok {
		return wire.AppendUvarint(b, code)
	}
	b = wire.AppendUvarint(b, kindOther)
	return wire.AppendString(b, kind)
}

func parseKind(d *wire.Dec, names map[uint64]string) string {
	code := d.Uvarint()
	if code == kindOther {
		return d.String()
	}
	return names[code]
}

// Slice length convention: 0 encodes nil, n+1 encodes length n — the
// nil/empty distinction survives the round trip, keeping decoded
// messages DeepEqual to the encoded ones.

func appendSliceLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return wire.AppendUvarint(b, 0)
	}
	return wire.AppendUvarint(b, uint64(n)+1)
}

// parseSliceLen returns (length, isNil). Lengths are sanity-capped by
// the remaining payload (every element costs at least one byte).
func parseSliceLen(d *wire.Dec) (int, bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	n := v - 1
	if n > uint64(d.Len()) {
		d.Fail("slice length past end of payload")
		return 0, true
	}
	return int(n), false
}

func appendPCs(b []byte, pcs []ir.PC) []byte {
	b = appendSliceLen(b, len(pcs), pcs == nil)
	for _, pc := range pcs {
		b = wire.AppendVarint(b, int64(pc))
	}
	return b
}

func parsePCs(d *wire.Dec) []ir.PC {
	n, isNil := parseSliceLen(d)
	if isNil {
		return nil
	}
	pcs := make([]ir.PC, n)
	for i := range pcs {
		pcs[i] = ir.PC(d.Varint())
	}
	return pcs
}

func appendInts(b []byte, vs []int) []byte {
	b = appendSliceLen(b, len(vs), vs == nil)
	for _, v := range vs {
		b = wire.AppendVarint(b, int64(v))
	}
	return b
}

func parseInts(d *wire.Dec) []int {
	n, isNil := parseSliceLen(d)
	if isNil {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(d.Varint())
	}
	return vs
}

// --- sub-message codecs ---

func appendFailure(b []byte, f *core.FailureReport) []byte {
	b = wire.AppendBool(b, f != nil)
	if f == nil {
		return b
	}
	b = wire.AppendBool(b, f.Deadlock)
	b = wire.AppendVarint(b, int64(f.PC))
	b = wire.AppendVarint(b, int64(f.Tid))
	b = wire.AppendVarint(b, f.Time)
	b = wire.AppendString(b, f.Msg)
	b = appendPCs(b, f.DeadlockPCs)
	return appendInts(b, f.DeadlockTids)
}

func parseFailure(d *wire.Dec) *core.FailureReport {
	if !d.Bool() {
		return nil
	}
	return &core.FailureReport{
		Deadlock:     d.Bool(),
		PC:           ir.PC(d.Varint()),
		Tid:          int(d.Varint()),
		Time:         d.Varint(),
		Msg:          d.String(),
		DeadlockPCs:  parsePCs(d),
		DeadlockTids: parseInts(d),
	}
}

func appendPattern(b []byte, p *pattern.Pattern) []byte {
	b = wire.AppendBool(b, p != nil)
	if p == nil {
		return b
	}
	b = wire.AppendVarint(b, int64(p.Kind))
	b = wire.AppendString(b, p.Sub)
	b = appendPCs(b, p.PCs)
	b = appendSliceLen(b, len(p.Events), p.Events == nil)
	for _, e := range p.Events {
		b = wire.AppendVarint(b, int64(e.PC))
		b = wire.AppendVarint(b, int64(e.Tid))
		b = wire.AppendVarint(b, e.Time)
	}
	b = wire.AppendVarint(b, int64(p.Rank))
	return wire.AppendBool(b, p.Absence)
}

func parsePattern(d *wire.Dec) *pattern.Pattern {
	if !d.Bool() {
		return nil
	}
	p := &pattern.Pattern{
		Kind: pattern.Kind(d.Varint()),
		Sub:  d.String(),
		PCs:  parsePCs(d),
	}
	if n, isNil := parseSliceLen(d); !isNil {
		p.Events = make([]pattern.Event, n)
		for i := range p.Events {
			p.Events[i] = pattern.Event{PC: ir.PC(d.Varint()), Tid: int(d.Varint()), Time: d.Varint()}
		}
	}
	p.Rank = int(d.Varint())
	p.Absence = d.Bool()
	return p
}

func appendScore(b []byte, s *statdiag.Score) []byte {
	b = appendPattern(b, s.Pattern)
	b = wire.AppendFloat64(b, s.Precision)
	b = wire.AppendFloat64(b, s.Recall)
	b = wire.AppendFloat64(b, s.F1)
	b = wire.AppendVarint(b, int64(s.PresentFailed))
	b = wire.AppendVarint(b, int64(s.PresentOK))
	return wire.AppendVarint(b, int64(s.AbsentFailed))
}

func parseScore(d *wire.Dec) statdiag.Score {
	return statdiag.Score{
		Pattern:       parsePattern(d),
		Precision:     d.Float64(),
		Recall:        d.Float64(),
		F1:            d.Float64(),
		PresentFailed: int(d.Varint()),
		PresentOK:     int(d.Varint()),
		AbsentFailed:  int(d.Varint()),
	}
}

func appendDiagnosis(b []byte, diag *core.Diagnosis) []byte {
	b = wire.AppendBool(b, diag != nil)
	if diag == nil {
		return b
	}
	b = appendScore(b, &diag.Best)
	b = wire.AppendBool(b, diag.Unique)
	b = appendSliceLen(b, len(diag.Scores), diag.Scores == nil)
	for i := range diag.Scores {
		b = appendScore(b, &diag.Scores[i])
	}
	b = wire.AppendVarint(b, int64(diag.AnchorPC))
	st := &diag.Stats
	b = wire.AppendVarint(b, int64(st.TotalInstrs))
	b = wire.AppendVarint(b, int64(st.ExecutedInstrs))
	b = wire.AppendVarint(b, int64(st.Candidates))
	b = wire.AppendVarint(b, int64(st.Rank1Candidates))
	b = wire.AppendVarint(b, int64(st.Patterns))
	b = wire.AppendVarint(b, int64(st.DynEvents))
	b = wire.AppendVarint(b, int64(st.SuccessTraces))
	b = wire.AppendVarint(b, int64(st.DroppedSuccesses))
	b = wire.AppendVarint(b, int64(st.PointsToTime))
	b = wire.AppendVarint(b, int64(st.DecodeTime))
	b = wire.AppendVarint(b, int64(st.RankTime))
	b = wire.AppendVarint(b, int64(st.PatternTime))
	b = wire.AppendVarint(b, int64(st.ObserveTime))
	b = wire.AppendVarint(b, int64(st.TotalTime))
	b = wire.AppendBool(b, st.PointsToCacheHit)
	b = wire.AppendUvarint(b, st.PointsToCacheHits)
	b = wire.AppendUvarint(b, st.PointsToCacheMisses)
	return wire.AppendVarint(b, int64(st.Workers))
}

func parseDiagnosis(d *wire.Dec) *core.Diagnosis {
	if !d.Bool() {
		return nil
	}
	diag := &core.Diagnosis{
		Best:   parseScore(d),
		Unique: d.Bool(),
	}
	if n, isNil := parseSliceLen(d); !isNil {
		diag.Scores = make([]statdiag.Score, n)
		for i := range diag.Scores {
			diag.Scores[i] = parseScore(d)
		}
	}
	diag.AnchorPC = ir.PC(d.Varint())
	st := &diag.Stats
	st.TotalInstrs = int(d.Varint())
	st.ExecutedInstrs = int(d.Varint())
	st.Candidates = int(d.Varint())
	st.Rank1Candidates = int(d.Varint())
	st.Patterns = int(d.Varint())
	st.DynEvents = int(d.Varint())
	st.SuccessTraces = int(d.Varint())
	st.DroppedSuccesses = int(d.Varint())
	st.PointsToTime = time.Duration(d.Varint())
	st.DecodeTime = time.Duration(d.Varint())
	st.RankTime = time.Duration(d.Varint())
	st.PatternTime = time.Duration(d.Varint())
	st.ObserveTime = time.Duration(d.Varint())
	st.TotalTime = time.Duration(d.Varint())
	st.PointsToCacheHit = d.Bool()
	st.PointsToCacheHits = d.Uvarint()
	st.PointsToCacheMisses = d.Uvarint()
	st.Workers = int(d.Varint())
	return diag
}

func appendStatus(b []byte, s *ServerStatus) []byte {
	b = wire.AppendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = wire.AppendVarint(b, s.OpenConns)
	b = wire.AppendVarint(b, s.ActiveDiagnoses)
	b = wire.AppendVarint(b, s.QueuedDiagnoses)
	b = wire.AppendUvarint(b, s.CompletedDiagnoses)
	b = wire.AppendUvarint(b, s.FailedDiagnoses)
	b = wire.AppendVarint(b, int64(s.MaxConcurrent))
	b = wire.AppendVarint(b, int64(s.Workers))
	b = wire.AppendUvarint(b, s.CacheHits)
	b = wire.AppendUvarint(b, s.CacheMisses)
	b = wire.AppendVarint(b, int64(s.DiagnoseTime))
	b = wire.AppendUvarint(b, s.DroppedSuccesses)
	b = wire.AppendUvarint(b, s.DeadlineDrops)
	b = wire.AppendUvarint(b, s.OversizeRejects)
	return wire.AppendUvarint(b, s.PanicsRecovered)
}

func parseStatus(d *wire.Dec) *ServerStatus {
	if !d.Bool() {
		return nil
	}
	return &ServerStatus{
		OpenConns:          d.Varint(),
		ActiveDiagnoses:    d.Varint(),
		QueuedDiagnoses:    d.Varint(),
		CompletedDiagnoses: d.Uvarint(),
		FailedDiagnoses:    d.Uvarint(),
		MaxConcurrent:      int(d.Varint()),
		Workers:            int(d.Varint()),
		CacheHits:          d.Uvarint(),
		CacheMisses:        d.Uvarint(),
		DiagnoseTime:       time.Duration(d.Varint()),
		DroppedSuccesses:   d.Uvarint(),
		DeadlineDrops:      d.Uvarint(),
		OversizeRejects:    d.Uvarint(),
		PanicsRecovered:    d.Uvarint(),
	}
}

func appendDirective(b []byte, dir *Directive) []byte {
	b = wire.AppendString(b, string(dir.Tenant))
	b = wire.AppendUvarint(b, uint64(dir.Case))
	b = wire.AppendVarint(b, int64(dir.TriggerPC))
	b = wire.AppendVarint(b, int64(dir.Want))
	return wire.AppendVarint(b, int64(dir.Have))
}

func parseDirective(d *wire.Dec) Directive {
	return Directive{
		Tenant:    TenantID(d.String()),
		Case:      CaseID(d.Uvarint()),
		TriggerPC: ir.PC(d.Varint()),
		Want:      int(d.Varint()),
		Have:      int(d.Varint()),
	}
}

// --- snapshot size tables ---

// threadMeta is one thread's declared section in a request envelope.
type threadMeta struct {
	tid     int
	wrapped bool
	size    int64
}

// snapMeta is one snapshot's declared shape: the envelope carries it
// so a receiver knows every chunk's destination (and every snapshot's
// total size) before any ring byte arrives.
type snapMeta struct {
	present bool
	time    int64
	threads []threadMeta
}

// bytes totals the declared ring payload.
func (m snapMeta) bytes() int64 {
	var n int64
	for _, th := range m.threads {
		n += th.size
	}
	return n
}

// appendSnapMeta writes one snapshot's size table. tids is the
// snapshot's ascending-tid order, computed once per snapshot by
// writeBinaryRequest and shared with the chunk emitter — sorting it
// twice showed up in the upload profile.
func appendSnapMeta(b []byte, snap *pt.Snapshot, tids []int) []byte {
	b = wire.AppendBool(b, snap != nil)
	if snap == nil {
		return b
	}
	b = wire.AppendVarint(b, snap.Time)
	b = wire.AppendUvarint(b, uint64(len(tids)))
	for _, tid := range tids {
		th := snap.Threads[tid]
		b = wire.AppendVarint(b, int64(tid))
		b = wire.AppendBool(b, th.Wrapped)
		b = wire.AppendUvarint(b, uint64(len(th.Data)))
	}
	return b
}

// maxDeclaredThreads bounds a snapshot's declared thread count; far
// above any real program, low enough that a hostile envelope cannot
// make the parser allocate much.
const maxDeclaredThreads = 1 << 20

func parseSnapMeta(d *wire.Dec) snapMeta {
	if !d.Bool() {
		return snapMeta{}
	}
	m := snapMeta{present: true, time: d.Varint()}
	n := d.Uvarint()
	if n > maxDeclaredThreads {
		d.Fail("implausible declared thread count")
		return snapMeta{}
	}
	m.threads = make([]threadMeta, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m.threads = append(m.threads, threadMeta{
			tid:     int(d.Varint()),
			wrapped: d.Bool(),
			size:    int64(d.Uvarint()),
		})
	}
	return m
}

// --- request envelope + chunks ---

// payloadPool recycles envelope/response build buffers.
var payloadPool = sync.Pool{New: func() any { return make([]byte, 0, 2048) }}

// appendRequestPayload builds the envelope payload. tids holds each
// snapshot's ascending-tid order, indexed [Snapshot, Snapshots...].
func appendRequestPayload(b []byte, req *Request, tids [][]int) []byte {
	b = appendKind(b, reqKindCodes, req.Kind)
	b = appendFailure(b, req.Failure)
	b = wire.AppendString(b, req.ModuleText)
	b = wire.AppendString(b, string(req.Tenant))
	b = wire.AppendUvarint(b, uint64(req.Case))
	b = wire.AppendString(b, req.Client)
	b = wire.AppendUvarint(b, req.Seq)
	b = wire.AppendVarint(b, int64(req.RoutePC))
	b = appendSnapMeta(b, req.Snapshot, tids[0])
	b = appendSliceLen(b, len(req.Snapshots), req.Snapshots == nil)
	for i, snap := range req.Snapshots {
		b = appendSnapMeta(b, snap, tids[i+1])
	}
	return b
}

// partsPool recycles the chunker's gather list across messages.
var partsPool = sync.Pool{New: func() any { return new([][]byte) }}

// chunker coalesces ring slices into chunk frames: a message's ring
// bytes form one logical stream (threads in declared order, snapshots
// in envelope order) that is cut into MaxChunkBytes frames wherever it
// happens to fall — crossing thread and snapshot boundaries freely.
// One frame per ~128 KB instead of one per thread is where the binary
// codec's encode throughput comes from on fleet batches of many small
// snapshots: each frame costs a header, two checksum passes and a
// reader round trip, so tiny threads must not each pay it. Slices are
// handed to the writer as a vector (FrameParts), never gathered into
// an intermediate buffer.
type chunker struct {
	w     *wire.Writer
	parts [][]byte
	size  int
	err   error
}

func (c *chunker) add(data []byte) {
	for c.err == nil && len(data) > 0 {
		n := wire.MaxChunkBytes - c.size
		if n > len(data) {
			n = len(data)
		}
		c.parts = append(c.parts, data[:n])
		c.size += n
		data = data[n:]
		if c.size == wire.MaxChunkBytes {
			c.flush()
		}
	}
}

func (c *chunker) flush() {
	if c.err == nil && c.size > 0 {
		c.err = c.w.FrameParts(wire.FrameChunk, c.parts...)
	}
	c.parts = c.parts[:0]
	c.size = 0
}

// writeBinaryRequest frames one request (envelope, then coalesced
// chunk frames). The caller flushes.
func writeBinaryRequest(w *wire.Writer, req *Request) error {
	snaps := make([]*pt.Snapshot, 1, 1+len(req.Snapshots))
	snaps[0] = req.Snapshot
	snaps = append(snaps, req.Snapshots...)
	tids := make([][]int, len(snaps))
	for i, snap := range snaps {
		if snap != nil {
			tids[i] = snap.Tids()
		}
	}
	b := payloadPool.Get().([]byte)[:0]
	b = appendRequestPayload(b, req, tids)
	err := w.Frame(wire.FrameRequest, b)
	payloadPool.Put(b[:0])
	if err != nil {
		return err
	}
	parts := partsPool.Get().(*[][]byte)
	ch := chunker{w: w, parts: (*parts)[:0]}
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		for _, tid := range tids[i] {
			ch.add(snap.Threads[tid].Data)
		}
	}
	ch.flush()
	*parts = ch.parts[:0]
	partsPool.Put(parts)
	return ch.err
}

// RequestEnvelope is a request's first frame, decoded: every field
// except the snapshot ring bytes, which are still on the wire as
// chunk frames. It is enough to route (Kind, Tenant, RoutePC, the
// failure PC) without buffering a single ring byte.
type RequestEnvelope struct {
	// Req has every scalar field populated; Snapshot/Snapshots are nil
	// until Assemble consumes the chunk frames.
	Req      Request
	hdr      []byte
	payload  []byte
	metas    []snapMeta
	snapsNil bool
}

// parseRequestEnvelope decodes an envelope payload.
func parseRequestEnvelope(payload []byte) (*RequestEnvelope, error) {
	d := wire.NewDec(payload)
	env := &RequestEnvelope{payload: payload}
	req := &env.Req
	req.Kind = parseKind(d, reqKindNames)
	req.Failure = parseFailure(d)
	req.ModuleText = d.String()
	req.Tenant = TenantID(d.String())
	req.Case = CaseID(d.Uvarint())
	req.Client = d.String()
	req.Seq = d.Uvarint()
	req.RoutePC = ir.PC(d.Varint())
	env.metas = append(env.metas, parseSnapMeta(d))
	n, isNil := parseSliceLen(d)
	env.snapsNil = isNil
	for i := 0; i < n && d.Err() == nil; i++ {
		env.metas = append(env.metas, parseSnapMeta(d))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return env, nil
}

// readEnvelope reads and decodes one request envelope frame. limit
// (0 = unlimited) is the per-message byte budget, checked against the
// envelope plus its declared ring bytes before a single ring byte is
// buffered, so an oversize message costs the wire time, never the
// heap. A breach returns wire.ErrFrameTooLarge.
func readEnvelope(r *wire.Reader, limit int64) (*RequestEnvelope, error) {
	typ, hdr, body, err := r.NextRaw()
	if err != nil {
		return nil, err
	}
	if typ != wire.FrameRequest {
		return nil, fmt.Errorf("%w: frame type 0x%02x where a request was expected", wire.ErrDecode, typ)
	}
	env, err := parseRequestEnvelope(body[1:])
	if err != nil {
		return nil, err
	}
	if limit > 0 && int64(len(env.payload))+env.DeclaredBytes() > limit {
		return nil, wire.ErrFrameTooLarge
	}
	env.hdr = hdr
	return env, nil
}

// AppendFrame appends the envelope frame exactly as it arrived —
// header, type byte and payload — to dst: what a relay forwards
// verbatim. The frame aliases the reader's buffer, so append it
// before reading the chunk frames.
func (e *RequestEnvelope) AppendFrame(dst []byte) []byte {
	dst = append(dst, e.hdr...)
	dst = append(dst, wire.FrameRequest)
	return append(dst, e.payload...)
}

// DeclaredBytes totals the ring bytes the envelope declares across
// all its snapshots.
func (e *RequestEnvelope) DeclaredBytes() int64 {
	var n int64
	for _, m := range e.metas {
		n += m.bytes()
	}
	return n
}

// Assemble consumes the envelope's chunk frames from r and fills in
// Req.Snapshot/Req.Snapshots. It enforces the message's structure —
// frame types, declared sizes, thread accounting — and nothing more:
// a ring's pt packets are parsed once, when a diagnosis decodes it.
func (e *RequestEnvelope) Assemble(r *wire.Reader) error {
	snaps := make([]*pt.Snapshot, len(e.metas))
	// The chunk frames are one logical byte stream for the whole
	// message: bytes fill the declared thread sections in order,
	// crossing thread and snapshot boundaries wherever the encoder's
	// coalescing happened to cut a frame. chunk is the unconsumed tail
	// of the current frame (a view into the reader's buffer — fully
	// consumed before the next read overwrites it).
	//
	// All ring bytes land in one arena sized by the (already
	// budget-checked) declared total, carved per snapshot — one
	// allocation per message instead of one per thread.
	var arena []byte
	if total := e.DeclaredBytes(); total > 0 {
		arena = make([]byte, total)
	}
	var chunk []byte
	for i, m := range e.metas {
		if !m.present {
			continue
		}
		a := pt.NewSnapshotAssembler(m.time)
		if n := m.bytes(); n > 0 {
			a.UseArena(arena[:n])
			arena = arena[n:]
		}
		for _, th := range m.threads {
			if err := a.StartThread(th.tid, th.wrapped, int(th.size)); err != nil {
				return fmt.Errorf("%w: %v", wire.ErrDecode, err)
			}
			for remaining := th.size; remaining > 0; {
				if len(chunk) == 0 {
					typ, p, err := r.Next()
					if err != nil {
						return err
					}
					if typ != wire.FrameChunk {
						return fmt.Errorf("%w: frame type 0x%02x where a chunk was expected", wire.ErrDecode, typ)
					}
					if len(p) == 0 {
						return fmt.Errorf("%w: empty chunk frame", wire.ErrDecode)
					}
					chunk = p
				}
				n := int64(len(chunk))
				if n > remaining {
					n = remaining
				}
				if err := a.Feed(chunk[:n]); err != nil {
					return fmt.Errorf("%w: %v", wire.ErrDecode, err)
				}
				chunk = chunk[n:]
				remaining -= n
			}
		}
		snap, err := a.Finish()
		if err != nil {
			return fmt.Errorf("%w: %v", wire.ErrDecode, err)
		}
		snaps[i] = snap
	}
	if len(chunk) > 0 {
		return fmt.Errorf("%w: %d ring bytes past the declared sizes", wire.ErrDecode, len(chunk))
	}
	e.Req.Snapshot = snaps[0]
	if !e.snapsNil {
		e.Req.Snapshots = snaps[1:]
	}
	return nil
}

// --- responses ---

func appendResponsePayload(b []byte, resp *Response) []byte {
	b = appendKind(b, respKindCodes, resp.Kind)
	b = appendDiagnosis(b, resp.Diagnosis)
	b = appendStatus(b, resp.Status)
	b = wire.AppendString(b, resp.Err)
	b = wire.AppendString(b, resp.Code)
	b = wire.AppendString(b, string(resp.Tenant))
	b = wire.AppendUvarint(b, uint64(resp.Case))
	b = appendSliceLen(b, len(resp.Directives), resp.Directives == nil)
	for i := range resp.Directives {
		b = appendDirective(b, &resp.Directives[i])
	}
	b = wire.AppendVarint(b, int64(resp.Accepted))
	b = wire.AppendBool(b, resp.Done)
	return wire.AppendUvarint(b, resp.Seq)
}

func parseResponsePayload(payload []byte) (Response, error) {
	d := wire.NewDec(payload)
	var resp Response
	resp.Kind = parseKind(d, respKindNames)
	resp.Diagnosis = parseDiagnosis(d)
	resp.Status = parseStatus(d)
	resp.Err = d.String()
	resp.Code = d.String()
	resp.Tenant = TenantID(d.String())
	resp.Case = CaseID(d.Uvarint())
	if n, isNil := parseSliceLen(d); !isNil {
		resp.Directives = make([]Directive, n)
		for i := range resp.Directives {
			resp.Directives[i] = parseDirective(d)
		}
	}
	resp.Accepted = int(d.Varint())
	resp.Done = d.Bool()
	resp.Seq = d.Uvarint()
	if err := d.Err(); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// writeBinaryResponse frames and flushes one response (responses are
// always a single frame).
func writeBinaryResponse(w *wire.Writer, resp *Response) error {
	b := payloadPool.Get().([]byte)[:0]
	b = appendResponsePayload(b, resp)
	err := w.Frame(wire.FrameResponse, b)
	payloadPool.Put(b[:0])
	if err != nil {
		return err
	}
	return w.Flush()
}

// readBinaryResponse reads and decodes one response frame.
func readBinaryResponse(r *wire.Reader) (Response, error) {
	typ, payload, err := r.Next()
	if err != nil {
		return Response{}, err
	}
	if typ != wire.FrameResponse {
		return Response{}, fmt.Errorf("%w: frame type 0x%02x where a response was expected", wire.ErrDecode, typ)
	}
	return parseResponsePayload(payload)
}
