package vm

// memory is a word-addressed flat address space backed by sparse
// pages. Addresses are in words (one word = one IR scalar slot);
// address 0 is the null pointer and is never allocated.
//
// Allocation is bump-only: objects are never freed during an
// execution, so an address is valid iff it lies inside [1, next).
// This matches what the analyses need — a stable address per
// allocation for the whole execution — and makes invalid-pointer
// detection trivial.
//
// Pages are allocated on first store, so an aggregate of up to 2^31
// words costs only the pages it touches. Pages are small (1 KB),
// because a run touches few words: its globals, its stacks' objects.
// Accesses cluster on one page at a time, so the last page used is
// cached and most loads and stores skip the page map.
type memory struct {
	pages map[int64]*page
	next  int64 // next free word address
	// lastIdx/last cache the most recently used existing page.
	lastIdx int64
	last    *page
}

const (
	pageShift = 7
	pageWords = 1 << pageShift
)

type page [pageWords]int64

func newMemory() *memory {
	return &memory{pages: make(map[int64]*page), next: 1, lastIdx: -1}
}

// alloc reserves n words and returns the address of the first.
func (m *memory) alloc(n int64) int64 {
	if n <= 0 {
		n = 1
	}
	addr := m.next
	m.next += n
	return addr
}

// valid reports whether addr points into allocated storage.
func (m *memory) valid(addr int64) bool {
	return addr > 0 && addr < m.next
}

// page returns the page with index idx, or nil if none was stored to.
func (m *memory) page(idx int64) *page {
	if idx == m.lastIdx {
		return m.last
	}
	p := m.pages[idx]
	if p != nil {
		m.lastIdx, m.last = idx, p
	}
	return p
}

// load reads the word at addr. The caller must have checked validity.
func (m *memory) load(addr int64) int64 {
	p := m.page(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&(pageWords-1)]
}

// store writes the word at addr. The caller must have checked validity.
func (m *memory) store(addr, val int64) {
	idx := addr >> pageShift
	p := m.page(idx)
	if p == nil {
		p = new(page)
		m.pages[idx] = p
		m.lastIdx, m.last = idx, p
	}
	p[addr&(pageWords-1)] = val
}
