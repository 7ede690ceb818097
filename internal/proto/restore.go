package proto

import (
	"fmt"
	"sort"

	"snorlax/internal/core"
	"snorlax/internal/store"
)

// Restore rebuilds the fleet server's in-memory state from the state
// a durable store replayed at open: tenants are re-registered cold
// (their module text verified by hashing it against the tenant id,
// and parsed only when a case first needs it), cases re-armed with
// their accepted traces and per-client dedup ledgers intact, and
// published reports re-served from disk without re-running diagnosis.
// Call it once, after setting Store and before serving.
//
// Two crash windows need repair on the way in, and both are closed by
// determinism rather than by guessing: a case whose quota was met but
// whose disarm or verdict never reached the log is disarmed and
// diagnosed now — on exactly the logged traces, in logged order — so
// the published report is bit-identical to what the uninterrupted
// server would have produced; a case whose verdict was logged but not
// its close record is closed now.
func (s *Server) Restore(st *store.State) error {
	if st == nil {
		s.restored.Store(true)
		return nil
	}
	s.init()
	type deferredPublish struct {
		t *tenant
		c *fleetCase
	}
	var publish []deferredPublish
	s.fleetMu.Lock()
	for _, p := range st.Programs {
		id := TenantID(p.Tenant)
		if textFingerprint(p.ModuleText) != id {
			s.fleetMu.Unlock()
			return fmt.Errorf("proto: restoring tenant %.12s…: module text does not match fingerprint", p.Tenant)
		}
		t := s.addTenantLocked(id, p.ModuleText)
		if n := CaseID(p.NextCase); n > t.nextCase {
			t.nextCase = n
		}
		// Case numbers are strictly increasing but not contiguous
		// (shards namespace theirs under CaseBase), so walk the case
		// map in sorted order rather than counting from 1.
		cids := make([]uint64, 0, len(p.Cases))
		for cid := range p.Cases {
			cids = append(cids, cid)
		}
		sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
		for _, cid := range cids {
			cs := p.Cases[cid]
			c := &fleetCase{
				id:         CaseID(cs.ID),
				triggerPC:  cs.TriggerPC,
				failing:    &core.RunReport{Failure: cs.Failure, Snapshot: cs.FailSnapshot},
				want:       cs.Want,
				collecting: cs.Collecting,
				done:       cs.Done,
				diag:       cs.Diagnosis,
				diagErr:    cs.DiagErr,
				// Read-only once the case is closed, so it can share
				// the state's slice.
				marks: cs.Marks,
			}
			// A closed case's ledger was pruned when the close record was
			// replayed; keep it nil here so restored state is identical to
			// the live server's post-publish state. An open case's logged
			// ledger holds only accepted traces, so it is also its marks.
			if !cs.Done {
				c.seen = make(map[string]uint64, len(cs.Clients))
				for client, seq := range cs.Clients {
					c.seen[client] = seq
					c.marks = append(c.marks, store.Mark{Client: client, Seq: seq})
				}
			}
			for _, snap := range cs.Successes {
				c.successes = append(c.successes, &core.RunReport{Snapshot: snap})
			}
			published := c.diag != nil || c.diagErr != ""
			if c.collecting && len(c.successes) >= c.want {
				// Crashed between the last accept and the disarm
				// record: log the disarm this run.
				if err := s.logFleet(&store.Record{Type: store.RecQuotaReached,
					Tenant: p.Tenant, Case: cs.ID}); err != nil {
					s.fleetMu.Unlock()
					return err
				}
				c.collecting = false
			}
			if published && !c.done {
				// Crashed between the verdict and its close record.
				if err := s.logFleet(&store.Record{Type: store.RecCaseClosed,
					Tenant: p.Tenant, Case: cs.ID}); err != nil {
					s.fleetMu.Unlock()
					return err
				}
				c.done = true
				// The close record prunes the ledger on replay; match it
				// for the record logged this run.
				c.seen = nil
			}
			s.om.fleetLedger.Add(int64(len(c.seen)))
			t.cases[c.id] = c
			t.byPC[c.triggerPC] = c.id
			if c.collecting {
				// Re-arm exactly as pre-crash: the gauges resume at the
				// logged counts, so the directive's remaining quota
				// never re-requests traces already accepted.
				s.om.fleetArmed.Inc()
				s.om.fleetQuotaWant.Add(int64(c.want))
				s.om.fleetQuotaHave.Add(int64(len(c.successes)))
			}
			if c.diag != nil {
				s.om.fleetReports.Inc()
			}
			if !c.collecting && !published {
				publish = append(publish, deferredPublish{t, c})
			}
		}
	}
	s.fleetMu.Unlock()
	// Quota met before the crash but no verdict in the log: diagnose
	// now, outside the lock, exactly like the batch handler that would
	// have crossed the quota. This is the one place Restore parses a
	// module, and a module that fails its checks fails Restore.
	for _, d := range publish {
		if err := s.publishCase(d.t, d.c); err != nil {
			return err
		}
	}
	s.restored.Store(true)
	return nil
}
