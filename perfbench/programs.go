package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// quota and batchSize follow the paper's 10x success quota and the
// fleet agents' default batch of two.
const (
	quota     = 10
	batchSize = 2
	poolSize  = quota + 2 // headroom for uploads that race past the quota
)

// program is one corpus or extension bug: the failing deployment, the
// layout-identical succeeding one, and the root cause a correct
// diagnosis must name.
type program struct {
	id    string
	fail  *ir.Module
	ok    *ir.Module
	text  string // printed failing module, the deployment template
	truth core.Truth
}

// loadPrograms builds every corpus and extension bug, in a fixed
// order. None is dropped: a bug whose pool cannot be built fails the
// run.
func loadPrograms() []*program {
	bugs := append(corpus.All(), corpus.Extensions()...)
	out := make([]*program, 0, len(bugs))
	for _, b := range bugs {
		fi := b.Build(corpus.Variant{Failing: true})
		oi := b.Build(corpus.Variant{Failing: false})
		out = append(out, &program{
			id:   b.ID,
			fail: fi.Mod,
			ok:   oi.Mod,
			text: ir.Print(fi.Mod),
			truth: core.Truth{Kind: fi.TruthKind, Sub: fi.TruthSub,
				PCs: fi.TruthPCs, Absence: fi.TruthAbsence},
		})
	}
	return out
}

// deploymentText renames a program's module, which is what a fresh
// deployment build looks like to the fleet: identical layout, new
// fingerprint, new tenant.
func deploymentText(p *program, name string) string {
	nl := strings.IndexByte(p.text, '\n')
	return "module " + name + p.text[nl:]
}

// vmSeeds derives the scheduler seeds a run uses from the workload
// seed: failing runs start at fail, successful runs at ok.
func vmSeeds(seed int64) (fail, ok int64) {
	base := 1 + (seed%997+997)%997*64
	return base, base + 100_000
}

// figure2 is the deployed loop of the paper's Figure 2 for one
// program: run the failing build until it fails, then collect want
// successful executions traced at the failure PC (falling back to a
// predecessor block when successful runs never reach it). Each
// core.Client.Run is a span under parent.
func figure2(tr *tracer, caseID, parent int64, p *program, seed int64, want int) (failing *core.RunReport, successes []*core.RunReport, err error) {
	failSeed, okSeed := vmSeeds(seed)
	fc := core.NewClient(p.fail)
	for s := failSeed; s < failSeed+20; s++ {
		id := tr.begin(spanClientRun, caseID, parent)
		rep := fc.Run(s, ir.NoPC)
		tr.end(id, "", rep.Result.Steps)
		if rep.Failed() {
			failing = rep
			break
		}
	}
	if failing == nil {
		return nil, nil, fmt.Errorf("%s: no failure within 20 runs", p.id)
	}
	oc := core.NewClient(p.ok)
	trigger := failing.Failure.PC
	for s := okSeed; len(successes) < want && s < okSeed+int64(want*4); s++ {
		id := tr.begin(spanClientRun, caseID, parent)
		rep := oc.Run(s, trigger)
		tr.end(id, "", rep.Result.Steps)
		if rep.Failed() {
			continue
		}
		if !rep.Triggered {
			if pred := predecessorTrigger(p.ok, trigger); pred != ir.NoPC {
				trigger = pred
			}
			continue
		}
		successes = append(successes, rep)
	}
	if len(successes) < want {
		return nil, nil, fmt.Errorf("%s: %d/%d triggered successes", p.id, len(successes), want)
	}
	return failing, successes, nil
}

// predecessorTrigger is the paper's fallback (§4.1) when the failure
// PC lies in code successful runs never reach: the first PC of a
// predecessor block.
func predecessorTrigger(mod *ir.Module, pc ir.PC) ir.PC {
	if int(pc) < 0 || int(pc) >= mod.NumInstrs() {
		return ir.NoPC
	}
	block := mod.InstrAt(pc).Block()
	for _, b := range ir.NewCFG(block.Parent).Preds(block) {
		if b != block {
			return b.FirstPC()
		}
	}
	return ir.NoPC
}

// tracePool is one program's pre-recorded wire material: the failing
// report every agent of a case sends and the triggered success
// snapshots agents upload. Fleet workloads record it in set-up, so
// the measured phase drives the tier, not the VM.
type tracePool struct {
	prog      *program
	failing   *core.RunReport
	snapshots []*pt.Snapshot
}

func buildPools(tr *tracer, progs []*program, seed int64) ([]*tracePool, error) {
	pools := make([]*tracePool, len(progs))
	for i, p := range progs {
		failing, succ, err := figure2(tr, 0, 0, p, seed, poolSize)
		if err != nil {
			return nil, err
		}
		tp := &tracePool{prog: p, failing: &core.RunReport{Failure: failing.Failure, Snapshot: failing.Snapshot}}
		for _, r := range succ {
			tp.snapshots = append(tp.snapshots, r.Snapshot)
		}
		pools[i] = tp
	}
	return pools, nil
}

// orderStrata is how many size classes caseOrder interleaves.
const orderStrata = 4

// caseOrder deals n cases over the pools: every program once per pass,
// so every program carries the same weight. Within a pass the programs
// are split by module size into orderStrata classes, each class is
// shuffled with the seed, and the classes are interleaved — small,
// large, medium, … — so a seed cannot bunch the largest modules (the
// slowest to register and diagnose) back to back. Queueing behind such
// a bunch would otherwise swing the open loop's latency from seed to
// seed more than any change to the code under test.
func caseOrder(rng *rand.Rand, pools []*tracePool, n int) []int {
	bySize := make([]int, len(pools))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		return len(pools[bySize[a]].prog.text) < len(pools[bySize[b]].prog.text)
	})
	out := make([]int, 0, n)
	for len(out) < n {
		strata := make([][]int, orderStrata)
		for r, p := range bySize {
			s := r * orderStrata / len(bySize)
			strata[s] = append(strata[s], p)
		}
		for _, st := range strata {
			rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		}
		for left := len(bySize); len(out) < n && left > 0; {
			for s, st := range strata {
				if len(st) > 0 && len(out) < n {
					out = append(out, st[0])
					strata[s] = st[1:]
					left--
				}
			}
		}
	}
	return out
}

// verifier checks fleet reports against a direct core.Server.Diagnose
// of the same traces. Cases of one program usually carry identical
// traces, so direct diagnoses are memoized by a hash of the inputs.
type verifier struct {
	memo map[[32]byte]string
	srv  map[*program]*core.Server
}

func newVerifier() *verifier {
	return &verifier{memo: map[[32]byte]string{}, srv: map[*program]*core.Server{}}
}

func inputKey(p *program, failing *core.RunReport, successes []*core.RunReport) [32]byte {
	h := sha256.New()
	h.Write([]byte(p.id))
	var buf [8]byte
	snap := func(s *pt.Snapshot) {
		if s == nil {
			h.Write([]byte{0})
			return
		}
		for _, tid := range s.Tids() {
			th := s.Threads[tid]
			binary.LittleEndian.PutUint64(buf[:], uint64(tid))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(len(th.Data)))
			h.Write(buf[:])
			if th.Wrapped {
				h.Write([]byte{1})
			}
			h.Write(th.Data)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(s.Time))
		h.Write(buf[:])
	}
	f := failing.Failure
	fmt.Fprintf(h, "%v|%d|%d|%d|%s|%v|%v|", f.Deadlock, f.PC, f.Tid, f.Time, f.Msg, f.DeadlockPCs, f.DeadlockTids)
	snap(failing.Snapshot)
	for _, s := range successes {
		h.Write([]byte{'|'})
		snap(s.Snapshot)
	}
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// expected returns the fingerprint of a direct diagnosis of the given
// traces, diagnosing once per distinct input.
func (v *verifier) expected(p *program, failing *core.RunReport, successes []*core.RunReport) (string, error) {
	k := inputKey(p, failing, successes)
	if fp, ok := v.memo[k]; ok {
		return fp, nil
	}
	cs := v.srv[p]
	if cs == nil {
		cs = core.NewServer(p.fail)
		v.srv[p] = cs
	}
	d, err := cs.Diagnose(failing, successes)
	if err != nil {
		return "", fmt.Errorf("%s: direct diagnosis: %w", p.id, err)
	}
	fp := d.Fingerprint()
	v.memo[k] = fp
	return fp, nil
}

// check is the per-report correctness rule shared by every workload:
// the diagnosis names the ground-truth root cause.
func check(p *program, d *core.Diagnosis) error {
	if d == nil {
		return fmt.Errorf("%s: no report", p.id)
	}
	if !core.MatchesTruth(d.Best.Pattern, p.truth) {
		got := "<none>"
		if d.Best.Pattern != nil {
			got = d.Best.Pattern.Key()
		}
		return fmt.Errorf("%s: diagnosed %s, truth %v/%s %v absence=%v", p.id, got,
			p.truth.Kind, p.truth.Sub, p.truth.PCs, p.truth.Absence)
	}
	return nil
}
