package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/pt"
)

// TestTracedRunsGolden pins every traced client execution of the
// Figure-2 loop, bit for bit, for every corpus and extension bug. Per
// bug it hashes, for each run Session.collect makes (in order), the VM
// result (virtual time, steps, branches, peak threads, failure), the
// trigger state, the snapshot (time and every thread's bytes and
// wrapped flag) and the encoder's statistics, then the collected
// failing run and successes. The digests live in
// testdata/traced-runs.golden (rewrite with -update). An optimisation
// of the VM or the encoder must leave them unchanged.
func TestTracedRunsGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# SHA-256 of every traced run Session.collect makes per bug: VM result,\n")
	sb.WriteString("# trigger, snapshot bytes and encoder statistics, then what it collects.\n")
	for _, b := range append(corpus.All(), corpus.Extensions()...) {
		sess := NewSession(b.Build(corpus.Variant{Failing: true}).Mod,
			b.Build(corpus.Variant{Failing: false}).Mod)
		h := sha256.New()
		runs := 0
		sess.traced = func(rep *RunReport, st pt.Stats) {
			runs++
			hashRunReport(h, rep)
			hashStats(h, st)
		}
		failing, successes, trigger, nruns, err := sess.collect()
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		fmt.Fprintf(h, "collected trigger=%d runs=%d successes=%d\n", trigger, nruns, len(successes))
		for _, rep := range append([]*RunReport{failing}, successes...) {
			hashRunReport(h, rep)
		}
		fmt.Fprintf(&sb, "%-16s %3d %x\n", b.ID, runs, h.Sum(nil))
	}
	checkGolden(t, "traced-runs.golden", sb.String())
}

func hashRunReport(h hash.Hash, rep *RunReport) {
	r := rep.Result
	fmt.Fprintf(h, "run time=%d steps=%d branches=%d maxthreads=%d triggered=%v\n",
		r.Time, r.Steps, r.Branches, r.MaxThreads, rep.Triggered)
	if f := r.Failure; f != nil {
		fmt.Fprintf(h, "failure kind=%d pc=%d tid=%d time=%d msg=%q pcs=%v tids=%v\n",
			f.Kind, f.PC, f.Thread, f.Time, f.Msg, f.DeadlockPCs, f.DeadlockTids)
	}
	if s := rep.Snapshot; s != nil {
		fmt.Fprintf(h, "snapshot time=%d threads=%d\n", s.Time, len(s.Threads))
		for _, tid := range s.Tids() {
			th := s.Threads[tid]
			fmt.Fprintf(h, "thread %d wrapped=%v len=%d\n", tid, th.Wrapped, len(th.Data))
			h.Write(th.Data)
		}
	}
}

func hashStats(h hash.Hash, st pt.Stats) {
	kinds := make([]int, 0, len(st.Packets))
	for k := range st.Packets {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	fmt.Fprintf(h, "stats bytes=%d timing=%d control=%d", st.Bytes, st.TimingBytes, st.ControlEvents)
	for _, k := range kinds {
		fmt.Fprintf(h, " %d:%d", k, st.Packets[pt.PacketKind(k)])
	}
	h.Write([]byte("\n"))
}
