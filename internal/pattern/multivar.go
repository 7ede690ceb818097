package pattern

import (
	"snorlax/internal/ir"
	"snorlax/internal/ranking"
	"snorlax/internal/traceproc"
)

// Multi-variable atomicity violations are the paper's §7 future work:
// an invariant spanning several memory locations (bytes vs item
// count, length vs capacity) is read non-atomically by one thread
// while another thread updates one of the locations in between. The
// single-variable patterns of Figure 1 cannot express this — the
// first and third access touch *different* locations — so we extend
// the pattern language with KindMultiVarAtomicity:
//
//	T1: R(x)   …   T2: W(x or y)   …   T1: R(y), invariant check fails
//
// Anchoring comes from the violated assertion: its condition's data
// provenance names the reads of every involved location
// (ranking.AssertedLoads), and each read's points-to set selects that
// location's candidate writers.

// MVAnchor is one location involved in a violated multi-location
// invariant: the anchored read plus the candidate accesses that may
// alias it.
type MVAnchor struct {
	// PC is the anchored load.
	PC ir.PC
	// Cands are the in-scope accesses that may alias the load's
	// operand (from ranking.Rank on this anchor).
	Cands []ranking.Candidate
}

// ComputeMultiVar enumerates multi-variable atomicity patterns for a
// failure whose assertion anchored at several loads. For every
// ordered pair of anchored reads executed by the failing thread, a
// cross-thread write to either location that lands between them forms
// a candidate pattern.
func ComputeMultiVar(mod *ir.Module, fi FailureInfo, anchors []MVAnchor, tr *traceproc.Trace, cfg Config) []*Pattern {
	cfg = cfg.withDefaults()
	if len(anchors) < 2 {
		return nil
	}
	var found []*Pattern

	for i, first := range anchors {
		ri, ok := tr.LastInstanceOfIn(first.PC, fi.Tid)
		if !ok {
			continue
		}
		for j, second := range anchors {
			if i == j || first.PC == second.PC {
				continue
			}
			rj, ok := tr.LastInstanceOfIn(second.PC, fi.Tid)
			if !ok || !traceproc.Before(ri, rj) {
				continue
			}
			// Candidate middle writes: writers of either location.
			for _, cand := range append(append([]ranking.Candidate(nil), first.Cands...), second.Cands...) {
				if AccessKind(cand.Instr) != 'W' {
					continue
				}
				cpc := cand.Instr.PC()
				for _, b := range tr.InstancesOf(cpc) {
					if b.Tid == fi.Tid {
						continue
					}
					if !traceproc.Before(ri, b) || !traceproc.Before(b, rj) {
						continue
					}
					found = append(found, &Pattern{
						Kind: KindMultiVarAtomicity,
						Sub:  "MV-RWR",
						PCs:  []ir.PC{first.PC, cpc, second.PC},
						Events: []Event{
							{PC: ri.PC, Tid: ri.Tid, Time: ri.Time},
							{PC: b.PC, Tid: b.Tid, Time: b.Time},
							{PC: rj.PC, Tid: rj.Tid, Time: rj.Time},
						},
						Rank: cand.Rank,
					})
					break // one witness per (pair, writer) suffices
				}
			}
		}
	}
	out := Dedupe(found)
	sortPatterns(out)
	return out
}
