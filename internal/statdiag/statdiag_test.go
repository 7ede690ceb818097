package statdiag

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"snorlax/internal/ir"
	"snorlax/internal/pattern"
)

func pat(kind pattern.Kind, sub string, pcs ...ir.PC) *pattern.Pattern {
	return &pattern.Pattern{Kind: kind, Sub: sub, PCs: pcs}
}

func obs(failed bool, present ...string) Observation {
	o := Observation{Failed: failed, Present: map[string]bool{}}
	for _, k := range present {
		o.Present[k] = true
	}
	return o
}

func TestPerfectPredictorScoresOne(t *testing.T) {
	p := pat(pattern.KindOrderViolation, "WR", 1, 2)
	observations := []Observation{
		obs(true, p.Key()),
		obs(false), obs(false), obs(false),
	}
	scores := Rank([]*pattern.Pattern{p}, observations)
	if len(scores) != 1 {
		t.Fatal("missing score")
	}
	s := scores[0]
	if s.F1 != 1 || s.Precision != 1 || s.Recall != 1 {
		t.Errorf("score = %+v", s)
	}
	if s.PresentFailed != 1 || s.PresentOK != 0 || s.AbsentFailed != 0 {
		t.Errorf("counts = %+v", s)
	}
}

func TestAlwaysPresentPatternScoresLow(t *testing.T) {
	root := pat(pattern.KindOrderViolation, "WR", 1, 2)
	noisy := pat(pattern.KindOrderViolation, "WR", 3, 2)
	observations := []Observation{obs(true, root.Key(), noisy.Key())}
	for i := 0; i < 10; i++ {
		observations = append(observations, obs(false, noisy.Key()))
	}
	scores := Rank([]*pattern.Pattern{noisy, root}, observations)
	best, unique := Best(scores)
	if !unique {
		t.Fatal("expected unique best")
	}
	if best.Pattern != root {
		t.Errorf("best = %s", best.Pattern.Key())
	}
	// Noisy pattern: precision 1/11, recall 1 → F1 = 2/12.
	var noisyScore Score
	for _, s := range scores {
		if s.Pattern == noisy {
			noisyScore = s
		}
	}
	want := 2.0 / 12.0
	if math.Abs(noisyScore.F1-want) > 1e-9 {
		t.Errorf("noisy F1 = %f, want %f", noisyScore.F1, want)
	}
}

func TestPatternMissingFromFailureHasZeroRecallF1(t *testing.T) {
	p := pat(pattern.KindAtomicityViolation, "RWR", 1, 2, 3)
	observations := []Observation{
		obs(true), // failed but pattern absent
		obs(false, p.Key()),
	}
	scores := Rank([]*pattern.Pattern{p}, observations)
	if scores[0].F1 != 0 {
		t.Errorf("F1 = %f, want 0", scores[0].F1)
	}
}

func TestTieIsReported(t *testing.T) {
	a := pat(pattern.KindOrderViolation, "WR", 1, 9)
	b := pat(pattern.KindOrderViolation, "WR", 2, 9)
	observations := []Observation{
		obs(true, a.Key(), b.Key()),
		obs(false),
	}
	scores := Rank([]*pattern.Pattern{a, b}, observations)
	if _, unique := Best(scores); unique {
		t.Error("tie not detected")
	}
}

func TestBestEmpty(t *testing.T) {
	if _, ok := Best(nil); ok {
		t.Error("Best(nil) should not be unique")
	}
}

func TestRankDeterministicOrder(t *testing.T) {
	a := pat(pattern.KindOrderViolation, "WR", 5, 9)
	b := pat(pattern.KindOrderViolation, "WR", 2, 9)
	observations := []Observation{obs(true, a.Key(), b.Key()), obs(false)}
	s1 := Rank([]*pattern.Pattern{a, b}, observations)
	s2 := Rank([]*pattern.Pattern{b, a}, observations)
	if s1[0].Pattern.Key() != s2[0].Pattern.Key() || s1[1].Pattern.Key() != s2[1].Pattern.Key() {
		t.Error("Rank order depends on input order")
	}
}

func TestF1Bounds(t *testing.T) {
	// Property: F1, precision, recall always in [0,1] for arbitrary
	// presence bitmaps.
	check := func(bits uint16, failMask uint16) bool {
		p := pat(pattern.KindOrderViolation, "WR", 1, 2)
		var observations []Observation
		for i := 0; i < 16; i++ {
			o := Observation{Failed: failMask&(1<<i) != 0, Present: map[string]bool{}}
			if bits&(1<<i) != 0 {
				o.Present[p.Key()] = true
			}
			observations = append(observations, o)
		}
		s := Rank([]*pattern.Pattern{p}, observations)[0]
		return s.F1 >= 0 && s.F1 <= 1 && s.Precision >= 0 && s.Precision <= 1 &&
			s.Recall >= 0 && s.Recall <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestF1Boundaries tables the degenerate observation sets §4.5's F1
// can see in production: no observations at all, zero successful
// traces (the cold-start case statistical diagnosis exists to get out
// of), and failure-only or success-only pattern occurrence.
func TestF1Boundaries(t *testing.T) {
	p := pat(pattern.KindOrderViolation, "WR", 1, 2)
	cases := []struct {
		name          string
		observations  []Observation
		prec, rec, f1 float64
	}{
		{"no observations", nil, 0, 0, 0},
		{"zero successes, always present",
			[]Observation{obs(true, p.Key()), obs(true, p.Key())}, 1, 1, 1},
		{"zero successes, never present",
			[]Observation{obs(true), obs(true)}, 0, 0, 0},
		{"all failing, present once",
			[]Observation{obs(true, p.Key()), obs(true)}, 1, 0.5, 2.0 / 3},
		{"present only in successes",
			[]Observation{obs(true), obs(false, p.Key())}, 0, 0, 0},
		{"successes only, pattern absent",
			[]Observation{obs(false), obs(false)}, 0, 0, 0},
		{"half precision, full recall",
			[]Observation{obs(true, p.Key()), obs(false, p.Key()), obs(false)}, 0.5, 1, 2.0 / 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scores := Rank([]*pattern.Pattern{p}, tc.observations)
			if len(scores) != 1 {
				t.Fatalf("got %d scores", len(scores))
			}
			s := scores[0]
			if s.Precision != tc.prec || s.Recall != tc.rec || math.Abs(s.F1-tc.f1) > 1e-12 {
				t.Errorf("P/R/F1 = %v/%v/%v, want %v/%v/%v",
					s.Precision, s.Recall, s.F1, tc.prec, tc.rec, tc.f1)
			}
		})
	}
}

// TestExactRatioComparisons tables the integer cross-product
// comparators against count triples whose float ratios round apart
// (or together) misleadingly.
func TestExactRatioComparisons(t *testing.T) {
	sc := func(pf, po, af int) Score {
		return Score{PresentFailed: pf, PresentOK: po, AbsentFailed: af}
	}
	cases := []struct {
		name string
		a, b Score
		cmp  func(a, b Score) int
		want int
	}{
		// The ISSUE's example: precision 30/90 vs 1/3 is the same ratio
		// from different counts.
		{"precision 30/90 == 1/3", sc(30, 60, 0), sc(1, 2, 0), ComparePrecision, 0},
		{"recall 30/90 == 1/3", sc(30, 0, 60), sc(1, 0, 2), CompareRecall, 0},
		{"f1 equal from unequal triples", sc(2, 8, 0), sc(1, 3, 1), CompareF1, 0},
		{"f1 equal, scaled", sc(3, 12, 0), sc(1, 2, 2), CompareF1, 0},
		{"f1 strictly greater", sc(2, 0, 0), sc(1, 1, 1), CompareF1, 1},
		{"f1 strictly smaller", sc(1, 3, 3), sc(1, 1, 1), CompareF1, -1},
		{"undefined precision scores zero", sc(0, 0, 2), sc(1, 99, 0), ComparePrecision, -1},
		{"undefined recall scores zero", sc(0, 2, 0), sc(1, 0, 99), CompareRecall, -1},
		{"both undefined tie at zero", sc(0, 0, 0), sc(0, 0, 0), CompareF1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cmp(tc.a, tc.b); got != tc.want {
				t.Errorf("cmp = %d, want %d", got, tc.want)
			}
			// Antisymmetry: swapping the arguments must negate.
			if got := tc.cmp(tc.b, tc.a); got != -tc.want {
				t.Errorf("swapped cmp = %d, want %d", got, -tc.want)
			}
		})
	}
}

// TestFloatF1TieNotFlipped is the tie-break regression test: two
// patterns whose F1 ratios are mathematically equal (1/3) but whose
// float64 computations round to different values must be treated as
// tied — ranked by the deterministic key order and reported as
// non-unique — instead of letting ulp noise pick the root cause.
func TestFloatF1TieNotFlipped(t *testing.T) {
	// a: present in both failing runs and 8 successes → (pf,po,af) = (2,8,0).
	// b: present in one failing run and 3 successes  → (pf,po,af) = (1,3,1).
	// Exact F1: 4/12 = 1/3 and 2/6 = 1/3. Float F1: they differ in the
	// last ulp (0.333…37 vs 0.333…31), so float comparison declares a
	// strict winner.
	a := pat(pattern.KindOrderViolation, "WR", 1, 9)
	b := pat(pattern.KindOrderViolation, "WR", 2, 9)
	observations := []Observation{
		obs(true, a.Key(), b.Key()),
		obs(true, a.Key()),
	}
	for i := 0; i < 3; i++ {
		observations = append(observations, obs(false, a.Key(), b.Key()))
	}
	for i := 0; i < 5; i++ {
		observations = append(observations, obs(false, a.Key()))
	}
	observations = append(observations, obs(false), obs(false))

	scores := Rank([]*pattern.Pattern{a, b}, observations)
	sa, sb := scores[0], scores[1]
	if sa.Pattern != a || sb.Pattern != b {
		// Same kind, same PC count, same rank: the key (smaller first
		// PC) must decide the order, not float noise.
		t.Fatalf("order = %s, %s; want the key-ordered a, b",
			scores[0].Pattern.Key(), scores[1].Pattern.Key())
	}
	if sa.F1 == sb.F1 {
		t.Fatal("float F1s rounded equal; the fixture no longer exercises the float-tie bug")
	}
	if CompareF1(sa, sb) != 0 {
		t.Fatalf("exact F1s differ: %+v vs %+v", sa, sb)
	}
	if _, unique := Best(scores); unique {
		t.Error("mathematically tied patterns reported as a unique best")
	}
}

// TestBestSpecificityTieBreak covers Best's uniqueness contract on
// exact F1 ties: more constrained events win; equally constrained
// ties are reported as ambiguous.
func TestBestSpecificityTieBreak(t *testing.T) {
	triple := pat(pattern.KindAtomicityViolation, "RWR", 1, 2, 3)
	pair := pat(pattern.KindOrderViolation, "WR", 1, 2)
	observations := []Observation{obs(true, triple.Key(), pair.Key()), obs(false)}
	best, unique := Best(Rank([]*pattern.Pattern{pair, triple}, observations))
	if !unique || best.Pattern != triple {
		t.Errorf("best = %v (unique=%v), want the atomicity triple uniquely", best.Pattern.Key(), unique)
	}

	other := pat(pattern.KindOrderViolation, "WR", 3, 4)
	observations = []Observation{obs(true, pair.Key(), other.Key()), obs(false)}
	if _, unique := Best(Rank([]*pattern.Pattern{pair, other}, observations)); unique {
		t.Error("equal-specificity exact tie reported as unique")
	}
}

// TestBestUnknownPCNotUnique: a top pattern with an unknown PC is
// reported as not unique, alone or ahead of others.
func TestBestUnknownPCNotUnique(t *testing.T) {
	dl := pat(pattern.KindDeadlock, "DL2", ir.NoPC, 33, ir.NoPC, 33)
	if best, unique := Best(Rank([]*pattern.Pattern{dl}, []Observation{obs(true, dl.Key())})); unique || best.Pattern != dl {
		t.Errorf("lone unknown-PC pattern: best = %s, unique = %v; want it, not unique", best.Pattern.Key(), unique)
	}
	pair := pat(pattern.KindOrderViolation, "WR", 1, 2)
	observations := []Observation{obs(true, dl.Key()), obs(false, pair.Key())}
	if best, unique := Best(Rank([]*pattern.Pattern{pair, dl}, observations)); unique || best.Pattern != dl {
		t.Errorf("unknown-PC pattern ahead of another: best = %s, unique = %v; want it, not unique", best.Pattern.Key(), unique)
	}
	full := pat(pattern.KindDeadlock, "DL2", 12, 33, 14, 33)
	if _, unique := Best(Rank([]*pattern.Pattern{full}, []Observation{obs(true, full.Key())})); !unique {
		t.Error("lone deadlock with known PCs reported as not unique")
	}
}

// TestRankTieBreakOrder pins Rank's comparator: descending F1, then
// more PCs, then lower type rank, and only when all three tie, the
// pattern key — whatever order the patterns arrive in.
func TestRankTieBreakOrder(t *testing.T) {
	ranked := func(p *pattern.Pattern, rank int) *pattern.Pattern {
		p.Rank = rank
		return p
	}
	tests := []struct {
		name string
		pats []*pattern.Pattern
		// present lists the patterns present in the failing run;
		// presentOK those also present in the one successful run.
		present, presentOK []int
		want               []string
	}{
		{
			name: "all tied: key order",
			pats: []*pattern.Pattern{
				pat(pattern.KindOrderViolation, "WR", 5, 9),
				pat(pattern.KindOrderViolation, "WR", 12, 9),
				pat(pattern.KindOrderViolation, "RW", 5, 9),
			},
			present: []int{0, 1, 2},
			want:    []string{"order-violation:RW:5,9", "order-violation:WR:12,9", "order-violation:WR:5,9"},
		},
		{
			name: "F1 before key",
			pats: []*pattern.Pattern{
				pat(pattern.KindOrderViolation, "WR", 1, 9),
				pat(pattern.KindOrderViolation, "WR", 2, 9),
			},
			present: []int{0, 1}, presentOK: []int{0},
			want: []string{"order-violation:WR:2,9", "order-violation:WR:1,9"},
		},
		{
			name: "specificity before key",
			pats: []*pattern.Pattern{
				pat(pattern.KindOrderViolation, "WR", 1, 9),
				pat(pattern.KindAtomicityViolation, "RWR", 7, 8, 9),
			},
			present: []int{0, 1},
			want:    []string{"atomicity-violation:RWR:7,8,9", "order-violation:WR:1,9"},
		},
		{
			name: "type rank before key",
			pats: []*pattern.Pattern{
				ranked(pat(pattern.KindOrderViolation, "WR", 1, 9), 2),
				ranked(pat(pattern.KindOrderViolation, "WR", 2, 9), 1),
				ranked(pat(pattern.KindOrderViolation, "WR", 3, 9), 2),
			},
			present: []int{0, 1, 2},
			want:    []string{"order-violation:WR:2,9", "order-violation:WR:1,9", "order-violation:WR:3,9"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			failed, ok := obs(true), obs(false)
			for _, i := range tc.present {
				failed.Present[tc.pats[i].Key()] = true
			}
			for _, i := range tc.presentOK {
				ok.Present[tc.pats[i].Key()] = true
			}
			observations := []Observation{failed, ok}
			reversed := make([]*pattern.Pattern, len(tc.pats))
			for i, p := range tc.pats {
				reversed[len(tc.pats)-1-i] = p
			}
			for _, in := range [][]*pattern.Pattern{tc.pats, reversed} {
				var got []string
				for _, s := range Rank(in, observations) {
					got = append(got, s.Pattern.Key())
				}
				if !slices.Equal(got, tc.want) {
					t.Errorf("order %v, want %v", got, tc.want)
				}
			}
		})
	}
}
