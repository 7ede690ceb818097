package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snorlax/internal/obs"
)

// Store is what the fleet server logs state transitions to. A nil
// Store means in-memory operation — exactly the pre-durability
// behaviour. *WAL is the one real implementation; tests substitute
// fakes to exercise failure paths.
type Store interface {
	// Append logs one record. The record must be durable (to the
	// configured sync policy's standard) before the state transition
	// it describes is acknowledged to a client.
	Append(rec *Record) error
	// Flush forces buffered records to disk with an fsync, regardless
	// of the sync policy.
	Flush() error
	// Close flushes, fsyncs and releases the store. Append after
	// Close fails.
	Close() error
	// Stats reports the store's operational counters.
	Stats() Stats
	// Err reports the store's sticky error: the first append or flush
	// failure, after which the store can no longer promise log order
	// equals state order. Readiness probes surface it without forcing
	// a flush.
	Err() error
}

// SyncPolicy selects when appended records are fsynced. The zero
// value is SyncInterval: a background flusher syncs every
// Options.SyncInterval, bounding loss to that window while keeping
// appends off the fsync path — the right trade for a collection that
// is idempotent end-to-end (a lost tail is simply re-uploaded and
// re-deduplicated by the clients' retry loops).
type SyncPolicy int

const (
	// SyncInterval syncs from a background flusher (default 50ms).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every append before it returns.
	SyncAlways
	// SyncNever leaves syncing to the OS (and to Flush/Close).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("sync-policy-%d", int(p))
}

// ParseSyncPolicy parses "always", "interval" or "never" (the CLI's
// -sync flag values).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or never)", s)
}

// Options tunes a WAL. The zero value is production-ready: interval
// syncing every 50ms, 4 MB segments, a snapshot every 1024 records,
// metrics on a private registry.
type Options struct {
	SyncPolicy SyncPolicy
	// SyncInterval is the background flush period under SyncInterval;
	// 0 means 50ms.
	SyncInterval time.Duration
	// SegmentBytes is the size past which the active segment is
	// rotated; 0 means 4 MB.
	SegmentBytes int64
	// SnapshotEvery is how many appended records trigger a state
	// snapshot plus compaction of the segments it covers; 0 means
	// 1024, negative disables snapshots (replay then always starts
	// from the oldest retained segment, and the WAL stops maintaining
	// its state mirror after Open — benchmarks use this to measure
	// pure append cost).
	SnapshotEvery int
	// Registry receives the store's metrics; nil uses a private
	// registry. The fleet server passes its shared registry so store
	// counters scrape alongside everything else on /metrics.
	Registry *obs.Registry
}

func (o Options) syncInterval() time.Duration {
	if o.SyncInterval <= 0 {
		return 50 * time.Millisecond
	}
	return o.SyncInterval
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 4 << 20
	}
	return o.SegmentBytes
}

func (o Options) snapshotEvery() int {
	switch {
	case o.SnapshotEvery < 0:
		return 0 // disabled
	case o.SnapshotEvery == 0:
		return 1024
	}
	return o.SnapshotEvery
}

// Stats is a point-in-time view of the store's counters — the same
// numbers the registry exposes on /metrics.
type Stats struct {
	// AppendedRecords and AppendedBytes count what was written since
	// the store's metrics were created (cumulative across reopens when
	// the registry is shared).
	AppendedRecords uint64
	AppendedBytes   uint64
	// Fsyncs counts every fsync issued: per-append under SyncAlways,
	// periodic under SyncInterval, plus rotations, snapshots and
	// directory syncs.
	Fsyncs uint64
	// Snapshots and Compactions count state snapshots written and
	// compaction passes that deleted covered segments.
	Snapshots   uint64
	Compactions uint64
	// TruncatedRecoveries counts recoveries that found a torn or
	// corrupt tail and truncated the log at the first bad record.
	TruncatedRecoveries uint64
	// Segments is the number of on-disk WAL segment files right now.
	Segments int64
	// LastLSN is the sequence number of the newest logged record.
	LastLSN uint64
}

// Store metric names (see Stats for semantics).
const (
	MetricStoreAppendedRecords     = "snorlax_store_appended_records_total"
	MetricStoreAppendedBytes       = "snorlax_store_appended_bytes_total"
	MetricStoreFsyncs              = "snorlax_store_fsyncs_total"
	MetricStoreSnapshots           = "snorlax_store_snapshots_total"
	MetricStoreCompactions         = "snorlax_store_compactions_total"
	MetricStoreTruncatedRecoveries = "snorlax_store_truncated_recoveries_total"
	MetricStoreSegments            = "snorlax_store_segments"
	MetricStoreLastLSN             = "snorlax_store_last_lsn"
	MetricStoreRecordBytes         = "snorlax_store_record_bytes"
)

type storeMetrics struct {
	appendedRecords     *obs.Counter
	appendedBytes       *obs.Counter
	fsyncs              *obs.Counter
	snapshots           *obs.Counter
	compactions         *obs.Counter
	truncatedRecoveries *obs.Counter
	segments            *obs.Gauge
	lastLSN             *obs.Gauge
	recordBytes         *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &storeMetrics{
		appendedRecords: reg.Counter(MetricStoreAppendedRecords,
			"WAL records appended."),
		appendedBytes: reg.Counter(MetricStoreAppendedBytes,
			"WAL bytes appended (framed records)."),
		fsyncs: reg.Counter(MetricStoreFsyncs,
			"fsync calls issued by the store (segments, snapshots, directory)."),
		snapshots: reg.Counter(MetricStoreSnapshots,
			"State snapshots written."),
		compactions: reg.Counter(MetricStoreCompactions,
			"Compaction passes that deleted snapshot-covered segments."),
		truncatedRecoveries: reg.Counter(MetricStoreTruncatedRecoveries,
			"Recoveries that truncated a torn or corrupt WAL tail."),
		segments: reg.Gauge(MetricStoreSegments,
			"On-disk WAL segment files."),
		lastLSN: reg.Gauge(MetricStoreLastLSN,
			"Sequence number of the newest logged record."),
		recordBytes: reg.Histogram(MetricStoreRecordBytes,
			"Framed size of appended WAL records, in bytes.", obs.DefByteBuckets),
	}
}

// WAL is the append-only segmented log behind the fleet server's
// durability. All methods are safe for concurrent use; the fleet
// server calls Append under its own state lock, which is what makes
// log order equal state-transition order — the invariant replay
// depends on.
type WAL struct {
	dir  string
	opts Options
	m    *storeMetrics

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	segStart  uint64 // first LSN the active segment can hold
	segBytes  int64
	lsn       uint64 // newest logged record
	state     *State // mirror of the log, kept for snapshots
	sinceSnap int
	dirty     bool // buffered or un-fsynced bytes exist
	err       error
	closed    bool
	enc       recordEncoder

	// tenants is how many of state.Programs have their registration in
	// tenants.log, and tenantsBytes that file's length: the next
	// snapshot appends state.Programs[tenants:] at tenantsBytes.
	tenants      int
	tenantsBytes int64

	// syncMu serialises fsyncs of segment files, so the background
	// flusher can fsync without holding mu, and an append waits on the
	// disk only when it rotates or syncs itself. Lock order is mu, then
	// syncMu. syncErr is the first
	// fsync failure: after one fsync of a file reports a write-back
	// error, a later fsync of it may succeed although the bytes were
	// lost, so every later fsync reports the first failure.
	syncMu  sync.Mutex
	syncErr error

	stop     chan struct{}
	stopOnce sync.Once
	flusher  sync.WaitGroup
}

// Segment and snapshot file names carry the first LSN they hold
// (segments) or the last LSN they cover (snapshots), zero-padded so
// lexical order is LSN order. tenantsFile holds each program's
// registration record once, for the snapshots to leave the module
// texts out.
const (
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapPrefix  = "state-"
	snapSuffix  = ".snap"
	tenantsFile = "tenants.log"
)

func (w *WAL) tenantsPath() string { return filepath.Join(w.dir, tenantsFile) }

func (w *WAL) segPath(first uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix))
}

func (w *WAL) snapPath(last uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", snapPrefix, last, snapSuffix))
}

func parseLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listFiles returns the LSNs embedded in the directory's segment (or
// snapshot) file names, ascending.
func (w *WAL) listFiles(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if n, ok := parseLSN(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Open opens (creating if needed) the WAL in dir, replays it, and
// starts a fresh segment for new appends. Recovery loads the newest
// readable snapshot, replays the segments past it, and truncates at
// the first torn or corrupt record — everything after a bad record
// was never acknowledged, so dropping it is safe; the truncation is
// counted in the truncated-recoveries metric.
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, m: newStoreMetrics(opts.Registry), state: NewState()}
	if err := w.recover(); err != nil {
		return nil, fmt.Errorf("store: recovering %s: %w", dir, err)
	}
	if err := w.startSegment(w.lsn + 1); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w.m.lastLSN.Set(int64(w.lsn))
	if w.opts.SyncPolicy == SyncInterval {
		w.stop = make(chan struct{})
		w.flusher.Add(1)
		go w.flushLoop()
	}
	return w, nil
}

// snapshotFile is the on-disk snapshot payload: the replayed state as
// of LSN, framed and checksummed like a record.
type snapshotFile struct {
	LSN   uint64
	State *State
	// TenantsBytes is the prefix of tenants.log the snapshot covers. It
	// holds one registration record for each of State.Programs' first
	// programs, in order, and the snapshot leaves out their module
	// texts. Later programs carry their text inline: a snapshot written
	// before tenants.log existed decodes as covering 0 bytes.
	TenantsBytes int64
}

func encodeFramed(v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderBytes))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	frame := buf.Bytes()
	body := frame[frameHeaderBytes:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
	return frame, nil
}

func loadSnapshot(path string) (*snapshotFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < frameHeaderBytes {
		return nil, errors.New("snapshot too short")
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	sum := binary.LittleEndian.Uint32(data[4:8])
	body := data[frameHeaderBytes:]
	if n != len(body) {
		return nil, errors.New("snapshot length mismatch")
	}
	if crc32.Checksum(body, crcTable) != sum {
		return nil, errors.New("snapshot checksum mismatch")
	}
	var sf snapshotFile
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&sf); err != nil {
		return nil, err
	}
	if sf.State == nil {
		sf.State = NewState()
	}
	sf.State.reindex()
	return &sf, nil
}

// withTexts gives the snapshot's programs the module texts of the
// tenants.log records it covers, and returns how many programs those
// are. recs is the scan of tenants.log. It fails when the covered
// prefix does not end on a clean record boundary, when a record names
// another tenant than the program in its place, or when a program
// past the prefix has no inline text.
func withTexts(sf *snapshotFile, recs []ScannedRecord) (int, bool) {
	n := 0
	switch {
	case sf.TenantsBytes < 0:
		return 0, false
	case sf.TenantsBytes > 0:
		n = sort.Search(len(recs), func(i int) bool { return int64(recs[i].End) >= sf.TenantsBytes }) + 1
		if n > len(recs) || int64(recs[n-1].End) != sf.TenantsBytes {
			return 0, false
		}
	}
	progs := sf.State.Programs
	if n > len(progs) {
		return 0, false
	}
	for i, p := range progs {
		if i >= n {
			if p.ModuleText == "" {
				return 0, false
			}
			continue
		}
		rec := recs[i].Record
		if rec.Type != RecProgramRegistered || rec.Tenant != p.Tenant || rec.ModuleText == "" {
			return 0, false
		}
		p.ModuleText = rec.ModuleText
	}
	return n, true
}

func (w *WAL) recover() error {
	snaps, err := w.listFiles(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	tlog, err := os.ReadFile(w.tenantsPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	tenantRecs, _ := ScanSegment(tlog)
	// Newest readable snapshot whose prefix of tenants.log is intact
	// wins; any other falls back to the one before it, and ultimately
	// to a full replay from LSN 1.
	for i := len(snaps) - 1; i >= 0; i-- {
		sf, err := loadSnapshot(w.snapPath(snaps[i]))
		if err != nil {
			continue
		}
		n, ok := withTexts(sf, tenantRecs)
		if !ok {
			continue
		}
		w.state, w.lsn = sf.State, sf.LSN
		w.tenants, w.tenantsBytes = n, sf.TenantsBytes
		break
	}
	// Records past the prefix belong to a snapshot that never landed;
	// their programs' registrations are still in the segments.
	if int64(len(tlog)) > w.tenantsBytes {
		if err := os.Truncate(w.tenantsPath(), w.tenantsBytes); err != nil {
			return err
		}
	}
	segs, err := w.listFiles(segPrefix, segSuffix)
	if err != nil {
		return err
	}
	truncated := false
	for idx, first := range segs {
		if first > w.lsn+1 {
			// A gap: the segment holding the next LSN is missing, so
			// nothing after it can be trusted either.
			truncated = true
			for _, later := range segs[idx:] {
				if err := os.Remove(w.segPath(later)); err != nil {
					return err
				}
			}
			break
		}
		path := w.segPath(first)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		recs, clean := ScanSegment(data)
		// Records at or below the recovery point are already covered
		// by the snapshot; the rest replay through the same apply that
		// built the state live. A record that does not apply is
		// corruption with a valid checksum — cut there too.
		bad := -1
		for i, sr := range recs {
			lsn := first + uint64(i)
			if lsn <= w.lsn {
				continue
			}
			if err := w.state.apply(sr.Record); err != nil {
				bad = i
				break
			}
			w.lsn = lsn
		}
		if bad >= 0 {
			clean = 0
			if bad > 0 {
				clean = recs[bad-1].End
			}
		}
		if clean < len(data) {
			truncated = true
			if err := os.Truncate(path, int64(clean)); err != nil {
				return err
			}
			for _, later := range segs[idx+1:] {
				if err := os.Remove(w.segPath(later)); err != nil {
					return err
				}
			}
			break
		}
	}
	if truncated {
		w.m.truncatedRecoveries.Inc()
		if err := w.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

// RecoveredState returns the fleet state replayed at Open — what the
// server's Restore rebuilds its in-memory structures from. The WAL
// keeps folding appended records into the same state (while snapshots
// are enabled), so callers must consume it before appending.
func (w *WAL) RecoveredState() *State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

func (w *WAL) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	w.m.fsyncs.Inc()
	return nil
}

func (w *WAL) countSegments() {
	if segs, err := w.listFiles(segPrefix, segSuffix); err == nil {
		w.m.segments.Set(int64(len(segs)))
	}
}

func (w *WAL) startSegment(first uint64) error {
	f, err := os.OpenFile(w.segPath(first), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.w, w.segStart, w.segBytes = f, bufio.NewWriterSize(f, 1<<16), first, info.Size()
	if err := w.syncDir(); err != nil {
		return err
	}
	w.countSegments()
	return nil
}

// fail records the first I/O error permanently: a store that failed
// mid-write can no longer promise log order equals state order, so
// every later operation reports the original failure.
func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("store: %w", err)
	}
}

var errClosed = errors.New("store: WAL is closed")

// Err reports the sticky error, nil while the store is healthy. A
// poisoned store keeps serving reads but rejects every append, so a
// readiness probe that checks Err can pull the shard out of rotation
// before clients burn retries on it.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Append logs one record, applying the configured sync policy. The
// record is validated against the WAL's state mirror first (while
// snapshots are enabled), so a record the log could not replay is
// rejected before it hits disk.
func (w *WAL) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	if w.err != nil {
		return w.err
	}
	frame, err := w.enc.encode(rec)
	if err != nil {
		return err
	}
	if w.opts.snapshotEvery() > 0 {
		if err := w.state.apply(rec); err != nil {
			return fmt.Errorf("store: record would not replay: %w", err)
		}
	}
	if _, err := w.w.Write(frame); err != nil {
		w.fail(err)
		return w.err
	}
	w.lsn++
	w.segBytes += int64(len(frame))
	w.sinceSnap++
	w.dirty = true
	w.m.appendedRecords.Inc()
	w.m.appendedBytes.Add(uint64(len(frame)))
	w.m.recordBytes.Observe(float64(len(frame)))
	w.m.lastLSN.Set(int64(w.lsn))
	if w.opts.SyncPolicy == SyncAlways {
		if err := w.flushLocked(true); err != nil {
			return err
		}
	}
	if w.segBytes >= w.opts.segmentBytes() {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if n := w.opts.snapshotEvery(); n > 0 && w.sinceSnap >= n {
		if err := w.snapshotLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked drains the buffered writer and, when sync is set,
// fsyncs the active segment.
func (w *WAL) flushLocked(sync bool) error {
	if err := w.w.Flush(); err != nil {
		w.fail(err)
		return w.err
	}
	if sync && w.dirty {
		if err := w.syncSegment(w.f); err != nil {
			w.fail(err)
			return w.err
		}
	}
	if sync {
		w.dirty = false
	}
	return nil
}

func (w *WAL) rotateLocked() error {
	// SyncNever promises no fsyncs on the append path, but a segment
	// is sealed exactly once — syncing it here costs one call per
	// rotation and spares recovery a guaranteed-truncated tail.
	if err := w.flushLocked(true); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.startSegment(w.lsn + 1); err != nil {
		w.fail(err)
		return w.err
	}
	return nil
}

// snapshotStep is called after each file step of a snapshot; the
// crash tests replace it to copy the directory as a crash there would
// leave it.
var snapshotStep = func(step string) {}

// snapshotLocked rotates (so the snapshot lands on a segment
// boundary), appends the programs registered since the last snapshot
// to tenants.log, writes the state mirror without module texts
// atomically, and compacts away every segment the snapshot covers
// plus all older snapshots.
func (w *WAL) snapshotLocked() error {
	if err := w.rotateLocked(); err != nil {
		return err
	}
	if err := w.appendTenantsLocked(); err != nil {
		w.fail(err)
		return w.err
	}
	frame, err := encodeFramed(&snapshotFile{LSN: w.lsn, State: w.state.withoutTexts(), TenantsBytes: w.tenantsBytes})
	if err != nil {
		w.fail(err)
		return w.err
	}
	final := w.snapPath(w.lsn)
	tmp := final + ".tmp"
	if err := w.writeFileSynced(tmp, frame); err != nil {
		w.fail(err)
		return w.err
	}
	snapshotStep("snapshot-written")
	if err := os.Rename(tmp, final); err != nil {
		w.fail(err)
		return w.err
	}
	snapshotStep("snapshot-renamed")
	if err := w.syncDir(); err != nil {
		w.fail(err)
		return w.err
	}
	w.m.snapshots.Inc()
	w.sinceSnap = 0
	if err := w.compactLocked(w.lsn); err != nil {
		return err
	}
	snapshotStep("compacted")
	return nil
}

// appendTenantsLocked appends the registration records of the programs
// registered since the last snapshot to tenants.log, in the segments'
// frame format, and fsyncs it. A new file's directory entry becomes
// durable with the snapshot's directory sync, before any snapshot
// refers to the file.
func (w *WAL) appendTenantsLocked() error {
	progs := w.state.Programs[w.tenants:]
	if len(progs) == 0 {
		return nil
	}
	f, err := os.OpenFile(w.tenantsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	var n int64
	for _, p := range progs {
		frame, err := w.enc.encode(&Record{Type: RecProgramRegistered, Tenant: p.Tenant, ModuleText: p.ModuleText})
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		n += int64(len(frame))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	snapshotStep("tenants-appended")
	if err := f.Sync(); err != nil {
		return err
	}
	w.m.fsyncs.Inc()
	snapshotStep("tenants-synced")
	w.tenants += len(progs)
	w.tenantsBytes += n
	return f.Close()
}

func (w *WAL) writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.m.fsyncs.Inc()
	return f.Close()
}

// compactLocked deletes segments fully covered by the snapshot at
// covered (the active segment is never covered — snapshots rotate
// first) and every snapshot older than it.
func (w *WAL) compactLocked(covered uint64) error {
	segs, err := w.listFiles(segPrefix, segSuffix)
	if err != nil {
		w.fail(err)
		return w.err
	}
	deleted := 0
	for _, first := range segs {
		if first <= covered && first != w.segStart {
			if err := os.Remove(w.segPath(first)); err != nil {
				w.fail(err)
				return w.err
			}
			deleted++
		}
	}
	snaps, err := w.listFiles(snapPrefix, snapSuffix)
	if err != nil {
		w.fail(err)
		return w.err
	}
	for _, last := range snaps {
		if last < covered {
			if err := os.Remove(w.snapPath(last)); err != nil {
				w.fail(err)
				return w.err
			}
		}
	}
	if deleted > 0 {
		w.m.compactions.Inc()
		if err := w.syncDir(); err != nil {
			w.fail(err)
			return w.err
		}
	}
	w.countSegments()
	return nil
}

func (w *WAL) flushLoop() {
	defer w.flusher.Done()
	ticker := time.NewTicker(w.opts.syncInterval())
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.backgroundSync()
		}
	}
}

// syncFile is the fsync of a segment file; tests replace it to inject
// write-back errors.
var syncFile = (*os.File).Sync

// syncSegment fsyncs f under syncMu and returns the first fsync
// failure the WAL has seen, whether or not this call failed. An
// fsync of a file a rotation already sealed and closed returns
// os.ErrClosed and is not a failure.
func (w *WAL) syncSegment(f *os.File) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncErr != nil {
		return w.syncErr
	}
	err := syncFile(f)
	switch {
	case errors.Is(err, os.ErrClosed):
		return err
	case err != nil:
		w.syncErr = err
	default:
		w.m.fsyncs.Inc()
	}
	return err
}

// backgroundSync drains the buffered writer under mu but fsyncs
// outside it, so an append (and the fleet lock its caller holds) does
// not wait out the fsync. Flush and rotation fsync under syncMu too,
// so they wait for this fsync and see its failure. The log stays
// dirty unless nothing was appended while the fsync ran.
func (w *WAL) backgroundSync() {
	w.mu.Lock()
	if w.closed || w.err != nil || !w.dirty {
		w.mu.Unlock()
		return
	}
	if err := w.w.Flush(); err != nil {
		w.fail(err)
		w.mu.Unlock()
		return
	}
	f, lsn := w.f, w.lsn
	w.mu.Unlock()

	err := w.syncSegment(f)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case errors.Is(err, os.ErrClosed):
		// A rotation sealed f, with its own fsync, before this one ran.
	case err != nil:
		w.fail(err)
	case w.lsn == lsn:
		w.dirty = false
	}
}

// Flush forces everything appended so far onto disk with an fsync,
// whatever the sync policy. Shutdown calls it before reporting a
// clean drain.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	return w.flushLocked(true)
}

// Close flushes, fsyncs and closes the WAL. It returns the store's
// sticky error, so a background flush failure nobody saw still
// surfaces at shutdown.
func (w *WAL) Close() error {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushLocked(true)
	if err := w.f.Close(); err != nil {
		w.fail(err)
	}
	return w.err
}

func (w *WAL) stopFlusher() {
	w.stopOnce.Do(func() {
		if w.stop != nil {
			close(w.stop)
			w.flusher.Wait()
		}
	})
}

// Stats reads the store's counters. With a shared registry the
// counters are cumulative across every store on it (reopens
// included), matching what /metrics scrapes.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	lsn := w.lsn
	w.mu.Unlock()
	return Stats{
		AppendedRecords:     w.m.appendedRecords.Value(),
		AppendedBytes:       w.m.appendedBytes.Value(),
		Fsyncs:              w.m.fsyncs.Value(),
		Snapshots:           w.m.snapshots.Value(),
		Compactions:         w.m.compactions.Value(),
		TruncatedRecoveries: w.m.truncatedRecoveries.Value(),
		Segments:            w.m.segments.Value(),
		LastLSN:             lsn,
	}
}
