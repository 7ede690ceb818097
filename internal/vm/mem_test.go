package vm

import (
	"testing"
	"testing/quick"
)

func TestMemoryBasics(t *testing.T) {
	m := newMemory()
	if m.valid(0) {
		t.Error("null address valid")
	}
	a := m.alloc(4)
	b := m.alloc(1)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("alloc returned %d, %d", a, b)
	}
	if b != a+4 {
		t.Errorf("bump allocation gap: %d then %d", a, b)
	}
	m.store(a+3, 77)
	if got := m.load(a + 3); got != 77 {
		t.Errorf("load = %d", got)
	}
	if got := m.load(a); got != 0 {
		t.Errorf("fresh word = %d, want 0", got)
	}
	if !m.valid(a) || !m.valid(b) || m.valid(b+1) {
		t.Error("validity bounds wrong")
	}
}

func TestMemoryZeroSizeAlloc(t *testing.T) {
	m := newMemory()
	a := m.alloc(0)
	bAddr := m.alloc(-3)
	if a == bAddr {
		t.Error("degenerate allocations must still get distinct words")
	}
	if !m.valid(a) || !m.valid(bAddr) {
		t.Error("degenerate allocations must be valid")
	}
}

func TestMemoryPageBoundaries(t *testing.T) {
	m := newMemory()
	base := m.alloc(3 * pageWords)
	// Write across page boundaries and read back.
	for _, off := range []int64{0, pageWords - 1, pageWords, 2*pageWords - 1, 2 * pageWords, 3*pageWords - 1} {
		m.store(base+off, off*7+1)
	}
	for _, off := range []int64{0, pageWords - 1, pageWords, 2*pageWords - 1, 2 * pageWords, 3*pageWords - 1} {
		if got := m.load(base + off); got != off*7+1 {
			t.Errorf("offset %d: load = %d, want %d", off, got, off*7+1)
		}
	}
}

func TestMemoryStoreLoadProperty(t *testing.T) {
	// Property: after a sequence of stores, every address holds its
	// most recent value and untouched addresses hold zero.
	check := func(writes []uint16, vals []int64) bool {
		m := newMemory()
		base := m.alloc(1 << 16)
		want := map[int64]int64{}
		for i, w := range writes {
			if i >= len(vals) {
				break
			}
			addr := base + int64(w)
			m.store(addr, vals[i])
			want[addr] = vals[i]
		}
		for addr, v := range want {
			if m.load(addr) != v {
				return false
			}
		}
		// Spot-check some untouched addresses.
		for probe := int64(0); probe < 1<<16; probe += 4099 {
			addr := base + probe
			if _, written := want[addr]; !written && m.load(addr) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMemoryHugeAggregateIsSparse: an aggregate of 2^31 words costs
// only the pages that are stored to. A store near its end allocates
// one page; loads of untouched words read zero and allocate nothing.
func TestMemoryHugeAggregateIsSparse(t *testing.T) {
	m := newMemory()
	base := m.alloc(1 << 31)
	last := base + 1<<31 - 1
	if !m.valid(last) || m.valid(last+1) {
		t.Fatal("aggregate bounds wrong")
	}
	m.store(last-3, 42)
	if len(m.pages) != 1 {
		t.Fatalf("store allocated %d pages, want 1", len(m.pages))
	}
	if got := m.load(last - 3); got != 42 {
		t.Errorf("load = %d, want 42", got)
	}
	for _, addr := range []int64{base, base + 1<<30, last} {
		if got := m.load(addr); got != 0 {
			t.Errorf("untouched word %d = %d, want 0", addr, got)
		}
	}
	if len(m.pages) != 1 {
		t.Errorf("loads allocated pages: %d, want 1", len(m.pages))
	}
}

// TestMemoryPageCacheAcrossPages interleaves accesses to two pages,
// so each access misses the last-page cache, and to a page that was
// only loaded from, which must not be cached as existing.
func TestMemoryPageCacheAcrossPages(t *testing.T) {
	m := newMemory()
	base := m.alloc(4 * pageWords)
	a, b, c := base, base+2*pageWords, base+3*pageWords
	for i := int64(0); i < 8; i++ {
		m.store(a+i, i+1)
		if got := m.load(c + i); got != 0 {
			t.Fatalf("unstored word = %d", got)
		}
		m.store(b+i, -(i + 1))
	}
	for i := int64(0); i < 8; i++ {
		if m.load(a+i) != i+1 || m.load(b+i) != -(i+1) {
			t.Fatalf("offset %d: got %d, %d", i, m.load(a+i), m.load(b+i))
		}
	}
	m.store(c, 9)
	if m.load(c) != 9 || m.load(a) != 1 {
		t.Error("store to a page first only loaded from was lost")
	}
}
