package pt

import "fmt"

// SnapshotAssembler is the streaming ingest entry point for a
// snapshot arriving as declared thread sections and bounded chunks:
// the receiver announces each thread (tid, wrapped flag, exact byte
// size) and feeds ring bytes as they arrive off the wire. Bytes are
// appended straight into the thread's final Data slice — allocated
// once, at the declared size.
//
// Assembly is structural only. Bytes beyond the declared size,
// duplicate or unfinished threads and negative sizes are protocol
// errors and fail it; the packet contents are not looked at. A ring's
// packets are parsed once, by Decode, when a diagnosis uses it.
type SnapshotAssembler struct {
	snap     *Snapshot
	tid      int
	wrapped  bool
	data     []byte
	arena    []byte
	need     int
	inThread bool
}

// NewSnapshotAssembler starts assembling a snapshot captured at the
// given time.
func NewSnapshotAssembler(time int64) *SnapshotAssembler {
	return &SnapshotAssembler{snap: &Snapshot{Threads: map[int]SnapshotThread{}, Time: time}}
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
	a.inThread = true
	if size == 0 {
		a.finishThread()
	}
	return nil
}

// Feed appends one chunk of the current thread's ring bytes.
func (a *SnapshotAssembler) Feed(p []byte) error {
	if !a.inThread {
		return fmt.Errorf("pt: %d ring bytes with no thread declared", len(p))
	}
	if len(p) > a.need {
		return fmt.Errorf("pt: thread %d received %d bytes beyond its declared size", a.tid, len(p)-a.need)
	}
	a.data = append(a.data, p...)
	a.need -= len(p)
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
		a.snap.Threads[a.tid] = SnapshotThread{Wrapped: a.wrapped}
	} else {
		a.snap.Threads[a.tid] = SnapshotThread{Data: a.data, Wrapped: a.wrapped}
	}
	a.data = nil
	a.inThread = false
}

// Finish returns the assembled snapshot; every declared thread must
// have received its full byte count.
func (a *SnapshotAssembler) Finish() (*Snapshot, error) {
	if a.inThread {
		return nil, fmt.Errorf("pt: thread %d incomplete: %d bytes short", a.tid, a.need)
	}
	return a.snap, nil
}
