package main

import (
	"runtime"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/obs"
)

// localPasses is how many measured passes over every program a
// local-session round makes.
const localPasses = 5

// runLocal is local-session: a closed loop in one goroutine, no
// network. Per program it runs the Figure-2 loop — reproduce the
// failure on the VM, collect ten triggered successes, diagnose — on one
// long-lived core.Server per program, so the points-to cache is warm
// after the untimed first pass.
func runLocal(rc *roundCtx) error {
	progs := loadPrograms()
	reg := obs.NewRegistry()
	servers := make([]*core.Server, len(progs))
	for i, p := range progs {
		servers[i] = core.NewServer(p.fail)
		servers[i].UseRegistry(reg)
	}
	rc.setupDone()

	num := rc.caseBase()
	session := func(i int, measured bool) error {
		num++
		p := progs[i]
		root := rc.tr.begin(spanCase, num, 0)
		start := time.Now()
		failing, successes, err := figure2(rc.tr, num, root, p, rc.seed, quota)
		var d *core.Diagnosis
		if err == nil {
			id := rc.tr.begin(spanDiagnose, num, root)
			d, err = servers[i].Diagnose(failing, successes)
			rc.tr.end(id, "", 0)
		}
		ttd := time.Since(start)
		rc.tr.end(root, "", 0)
		if err == nil {
			err = check(p, d)
		}
		if !measured {
			return err
		}
		rc.attempted++
		if err != nil {
			rc.failed++
			rc.problem("session %d: %v", num, err)
			rc.ttd = append(rc.ttd, ttdCap)
			return nil
		}
		rc.diagnoses++
		rc.reports++
		rc.patterns += int64(d.Stats.Patterns)
		rc.ttd = append(rc.ttd, ttd)
		return nil
	}
	for i := range progs {
		if err := session(i, false); err != nil {
			rc.problem("warm-up session: %v", err)
		}
	}
	rc.beginMeasure(reg)
	for pass := 0; pass < localPasses; pass++ {
		for _, i := range rc.rng.Perm(len(progs)) {
			session(i, true)
		}
	}
	rc.pauseMeasure(reg)
	rc.finishMeasure()
	// The programs and servers are the state the heap readings bracket;
	// keep them reachable until both readings are taken.
	runtime.KeepAlive(progs)
	runtime.KeepAlive(servers)
	return nil
}
