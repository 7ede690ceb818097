package pt

// ring is a byte ring buffer that overwrites its oldest contents when
// full, like the in-memory trace buffer of the paper's Intel PT
// driver (§5). Its capacity bounds what it holds; it is not allocated
// up front. While every byte written still fits, the ring grows its
// slice by append, never reserving more than the capacity. The first
// write that would pass the capacity allocates the full buffer, once;
// from then on writes overwrite in place and never allocate.
type ring struct {
	buf      []byte
	capacity int
	w        int   // next write index, once buf is full length
	total    int64 // total bytes ever written
}

// minRingGrow is the smallest backing array a growing ring reserves,
// so that a thread's first few packets do not each reallocate.
const minRingGrow = 512

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = 64 * 1024
	}
	return &ring{capacity: capacity}
}

// write appends p, overwriting the oldest bytes on wrap.
func (r *ring) write(p []byte) {
	if len(r.buf) < r.capacity {
		if need := len(r.buf) + len(p); need <= r.capacity {
			r.grow(need)
			r.buf = append(r.buf, p...)
			r.total += int64(len(p))
			return
		}
		// This write wraps: switch to the full buffer, with the write
		// index just past the bytes held so far.
		full := make([]byte, r.capacity)
		r.w = copy(full, r.buf)
		r.buf = full
	}
	r.total += int64(len(p))
	if len(p) >= len(r.buf) {
		copy(r.buf, p[len(p)-len(r.buf):])
		r.w = 0
		return
	}
	n := copy(r.buf[r.w:], p)
	if n < len(p) {
		copy(r.buf, p[n:])
		r.w = len(p) - n
	} else {
		r.w += n
		if r.w == len(r.buf) {
			r.w = 0
		}
	}
}

// grow makes room for need bytes (need <= capacity), doubling the
// backing array but never reserving more than the capacity.
func (r *ring) grow(need int) {
	if need <= cap(r.buf) {
		return
	}
	c := min(max(2*cap(r.buf), need, minRingGrow), r.capacity)
	buf := make([]byte, len(r.buf), c)
	copy(buf, r.buf)
	r.buf = buf
}

// wrapped reports whether any byte has been overwritten. A write that
// exactly fills the ring (total == capacity) still holds every byte
// ever written, so the snapshot's prefix is a packet boundary, not a
// mid-packet cut; only total > capacity loses history.
func (r *ring) wrapped() bool { return r.total > int64(r.capacity) }

// snapshot returns the buffered bytes oldest-first, plus whether the
// ring has wrapped (meaning the prefix may start mid-packet).
func (r *ring) snapshot() (data []byte, wrapped bool) {
	// The oldest byte lives at the write index: 0 while the ring is
	// still growing and when a fill was exact with nothing overwritten.
	out := make([]byte, len(r.buf))
	n := copy(out, r.buf[r.w:])
	copy(out[n:], r.buf[:r.w])
	return out, r.wrapped()
}
