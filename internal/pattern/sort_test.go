package pattern

import (
	"fmt"
	"testing"

	"snorlax/internal/ir"
)

// TestSortPatternsOrder pins sortPatterns' order, rank first, then the
// key as a string, whatever order the patterns arrive in.
func TestSortPatternsOrder(t *testing.T) {
	ov := func(rank int, pcs ...ir.PC) *Pattern {
		return &Pattern{Kind: KindOrderViolation, Sub: "WR", PCs: pcs, Rank: rank}
	}
	in := []*Pattern{ov(2, 1, 9), ov(1, 3, 4), ov(1, 10, 2), ov(1, 1, 2)}
	want := "[order-violation:WR:1,2 order-violation:WR:10,2 order-violation:WR:3,4 order-violation:WR:1,9]"
	for shift := range in {
		pats := append(append([]*Pattern(nil), in[shift:]...), in[:shift]...)
		sortPatterns(pats)
		if got := fmt.Sprint(pats); got != want {
			t.Errorf("rotation %d: sortPatterns = %s, want %s", shift, got, want)
		}
	}
}
