// Package statdiag implements statistical diagnosis — step 7 of Lazy
// Diagnosis (§4.5 of the Snorlax paper).
//
// Each candidate pattern is scored by the F1 measure (harmonic mean
// of precision and recall) of "pattern present" as a predictor of
// "execution failed", over the set of collected traces: the failing
// trace(s) plus up to 10× as many traces from successful executions
// collected at the failure PC (step 8). The pattern with the highest
// F1 is reported as the root cause.
package statdiag

import (
	"fmt"
	"slices"
	"sort"

	"snorlax/internal/ir"
	"snorlax/internal/pattern"
)

// Observation is one execution's view of the candidate patterns.
type Observation struct {
	// Failed reports whether this execution failed.
	Failed bool
	// Present maps pattern keys to whether the pattern occurred.
	Present map[string]bool
}

// Score is the statistical verdict for one pattern.
type Score struct {
	Pattern   *pattern.Pattern
	Precision float64
	Recall    float64
	F1        float64
	// Counts behind the ratios.
	PresentFailed, PresentOK, AbsentFailed int
}

func (s Score) String() string {
	return fmt.Sprintf("%s F1=%.3f (P=%.3f R=%.3f)", s.Pattern.Key(), s.F1, s.Precision, s.Recall)
}

// The ratios behind a Score are exact rationals over its count triple:
//
//	precision = pf / (pf + po)
//	recall    = pf / (pf + af)
//	F1        = 2·pf / (2·pf + po + af)
//
// (the last by substituting P and R into 2PR/(P+R)). Ties must be
// detected on these integers, not on the rounded float64 fields:
// mathematically equal ratios computed from different triples — e.g.
// (pf,po,af) = (1,0,1) and (3,1,2), both F1 = 2/3 — can land on
// different float64 values after the two-division round trip, and a
// spurious strict inequality there flips which pattern is reported as
// the root cause and whether the verdict counts as unique.

// cmpFrac compares the rationals an/ad and bn/bd by integer cross
// product. A zero denominator means the ratio is undefined and scores
// as 0 (the convention the float fields follow).
func cmpFrac(an, ad, bn, bd int64) int {
	if ad == 0 {
		an, ad = 0, 1
	}
	if bd == 0 {
		bn, bd = 0, 1
	}
	switch l, r := an*bd, bn*ad; {
	case l < r:
		return -1
	case l > r:
		return 1
	}
	return 0
}

func (s Score) f1Frac() (num, den int64) {
	pf, po, af := int64(s.PresentFailed), int64(s.PresentOK), int64(s.AbsentFailed)
	return 2 * pf, 2*pf + po + af
}

func (s Score) precisionFrac() (num, den int64) {
	pf, po := int64(s.PresentFailed), int64(s.PresentOK)
	return pf, pf + po
}

func (s Score) recallFrac() (num, den int64) {
	pf, af := int64(s.PresentFailed), int64(s.AbsentFailed)
	return pf, pf + af
}

// CompareF1 orders two scores by their exact F1 ratios: -1, 0 or +1 as
// a's F1 is less than, equal to, or greater than b's. Equal ratios
// compare equal regardless of which count triples produced them.
func CompareF1(a, b Score) int {
	an, ad := a.f1Frac()
	bn, bd := b.f1Frac()
	return cmpFrac(an, ad, bn, bd)
}

// ComparePrecision orders two scores by their exact precision ratios.
func ComparePrecision(a, b Score) int {
	an, ad := a.precisionFrac()
	bn, bd := b.precisionFrac()
	return cmpFrac(an, ad, bn, bd)
}

// CompareRecall orders two scores by their exact recall ratios.
func CompareRecall(a, b Score) int {
	an, ad := a.recallFrac()
	bn, bd := b.recallFrac()
	return cmpFrac(an, ad, bn, bd)
}

// Rank scores every pattern over the observations and returns the
// scores sorted by descending F1 (ties broken by the pattern's type
// rank, then key, for determinism).
func Rank(patterns []*pattern.Pattern, obs []Observation) []Score {
	// Each score carries its pattern's key, built once: the sort's
	// last tie-break compares keys.
	type keyedScore struct {
		Score
		key string
	}
	keyed := make([]keyedScore, 0, len(patterns))
	for _, p := range patterns {
		key := p.Key()
		var presentFailed, presentOK, absentFailed int
		for _, o := range obs {
			present := o.Present[key]
			switch {
			case present && o.Failed:
				presentFailed++
			case present && !o.Failed:
				presentOK++
			case !present && o.Failed:
				absentFailed++
			}
		}
		s := Score{
			Pattern:       p,
			PresentFailed: presentFailed,
			PresentOK:     presentOK,
			AbsentFailed:  absentFailed,
		}
		if presentFailed+presentOK > 0 {
			s.Precision = float64(presentFailed) / float64(presentFailed+presentOK)
		}
		if presentFailed+absentFailed > 0 {
			s.Recall = float64(presentFailed) / float64(presentFailed+absentFailed)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
		keyed = append(keyed, keyedScore{s, key})
	}
	sort.Slice(keyed, func(i, j int) bool {
		si, sj := keyed[i], keyed[j]
		if c := CompareF1(si.Score, sj.Score); c != 0 {
			return c > 0
		}
		// Specificity: a pattern constraining more events (an
		// atomicity triple) subsumes a coarser one (the order pair it
		// contains) when both predict the failure equally well.
		if len(si.Pattern.PCs) != len(sj.Pattern.PCs) {
			return len(si.Pattern.PCs) > len(sj.Pattern.PCs)
		}
		if si.Pattern.Rank != sj.Pattern.Rank {
			return si.Pattern.Rank < sj.Pattern.Rank
		}
		return si.key < sj.key
	})
	scores := make([]Score, len(keyed))
	for i := range keyed {
		scores[i] = keyed[i].Score
	}
	return scores
}

// Best returns the top-scored pattern, plus whether it is uniquely
// best: strictly higher F1 than the runner-up, or equal F1 but
// strictly more specific (more constrained events). The paper notes
// developers must disambiguate manually on exact ties; its evaluation
// — and ours — never hits that case. A top pattern with an unknown
// (ir.NoPC) PC is never unique: a deadlock whose held lock fell out of
// a wrapped trace ring names only half its root cause, however it
// scores.
func Best(scores []Score) (Score, bool) {
	if len(scores) == 0 {
		return Score{}, false
	}
	if slices.Contains(scores[0].Pattern.PCs, ir.NoPC) {
		return scores[0], false
	}
	if len(scores) == 1 {
		return scores[0], true
	}
	a, b := scores[0], scores[1]
	c := CompareF1(a, b)
	unique := c > 0 || (c == 0 && len(a.Pattern.PCs) > len(b.Pattern.PCs))
	return a, unique
}
