// Fleet mode: one analysis server, many programs, many production
// clients (§4.5, Figure 2 scaled out).
//
// A tenant is a registered program, identified by the fingerprint of
// its canonical IR text; registrations of byte-identical programs land
// on the same tenant, whose core.Server — and therefore whose
// points-to analysis cache — is shared across every client running
// that program. A failure report opens a diagnosis case (idempotently:
// concurrent reports of the same failure PC join one case) and arms a
// collection directive, "snapshot successful executions at PC X".
// Agents poll directives, run with the trigger armed, and batch-upload
// triggered snapshots; each upload carries a client id and a sequence
// number so replays after a lost reply are deduplicated instead of
// double-counted toward the quota. When a case reaches its success
// quota (the paper's 10×), the directive disarms, the server runs Lazy
// Diagnosis on exactly the accepted traces, and the report is
// published for any client of the tenant to fetch. A "publish"
// request does the same before the quota, from the traces accepted so
// far: it is how a single client's session asks for its verdict.
package proto

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
	"snorlax/internal/store"
)

// TenantID identifies a registered program: the hex SHA-256 of its
// canonical (printed) IR text. Two registrations of the same program —
// from different clients, or the same client reconnecting — always
// map to the same tenant.
type TenantID string

// CaseID numbers diagnosis cases within one tenant.
type CaseID uint64

// DefaultFleetQuota is the per-case success-trace quota: the paper's
// empirically-determined 10× successful traces per failing trace.
const DefaultFleetQuota = 10

// ModuleFingerprint computes a module's tenant id from its canonical
// printed form, so layout-identical programs fingerprint equal no
// matter which textual variant they were parsed from.
func ModuleFingerprint(mod *ir.Module) TenantID { return textFingerprint(ir.Print(mod)) }

// textFingerprint is the tenant id of a canonical module text.
func textFingerprint(text string) TenantID {
	sum := sha256.Sum256([]byte(text))
	return TenantID(hex.EncodeToString(sum[:]))
}

// Directive is a server-pushed collection order: run with a trace
// trigger armed at TriggerPC and upload triggered success snapshots
// until the case has Want of them. Have lets agents (and operators)
// see quota progress; a directive disappears from the "directives"
// reply once the quota is met.
type Directive struct {
	Tenant    TenantID
	Case      CaseID
	TriggerPC ir.PC
	// Want and Have are the case's success-trace quota and how many
	// uploads have been accepted toward it.
	Want, Have int
}

// tenant is one registered program and its open cases.
//
// A registered tenant is warm: it holds the caller's parsed module
// from the start. A restored tenant starts cold, holding only its id
// and the canonical text the store logged, and parses that text the
// first time it needs its analysis server (a case opens, or a
// restored case publishes). Tenants that only re-serve published
// reports after a restart are never parsed.
type tenant struct {
	id TenantID

	// load guards the one-time materialisation of cs (or loadErr)
	// from text, the canonical module text, which is dropped once cs
	// exists. After creation all three are written only inside
	// load.Do and read only after it.
	load    sync.Once
	text    string
	cs      *core.Server
	loadErr error

	nextCase CaseID
	cases    map[CaseID]*fleetCase
	// byPC maps a failure PC to its case, making case-opening
	// idempotent: a fleet reporting the same crash from every replica
	// yields one case, not one per replica.
	byPC map[ir.PC]CaseID
}

// fleetCase is one failure under diagnosis.
type fleetCase struct {
	id        CaseID
	triggerPC ir.PC
	failing   *core.RunReport
	successes []*core.RunReport
	want      int
	// seen tracks, per reporting client, the highest snapshot sequence
	// number accepted — the dedupe ledger that makes batch upload
	// idempotent across retries.
	seen map[string]uint64
	// marks holds, per client with accepted traces, the sequence
	// number of its latest accepted trace. It outlives the ledger
	// prune at close, so an agent whose reply to its last batch was
	// lost, and whose retry finds the case closed, still learns the
	// mark that batch earned.
	marks store.Marks
	// collecting is true while the directive is armed; done flips when
	// the diagnosis (or its error) is published.
	collecting bool
	done       bool
	diag       *core.Diagnosis
	diagErr    string
}

func (c *fleetCase) directive(t TenantID) Directive {
	return Directive{Tenant: t, Case: c.id, TriggerPC: c.triggerPC,
		Want: c.want, Have: len(c.successes)}
}

func (s *Server) fleetQuota() int {
	if s.FleetQuota > 0 {
		return s.FleetQuota
	}
	return DefaultFleetQuota
}

// logFleet appends one record to the durable store, when configured.
// Every caller holds fleetMu across the append and the state mutation
// it describes, so log order always equals state-transition order —
// the invariant recovery replay depends on. An append error means the
// transition must not happen (the client sees an "error" reply and
// retries; every fleet operation is idempotent).
func (s *Server) logFleet(rec *store.Record) error {
	if s.Store == nil {
		return nil
	}
	return s.Store.Append(rec)
}

// RegisterProgram registers mod as a tenant (idempotently) and returns
// its id. The tenant's analysis server shares the module-identity
// points-to cache across every connection diagnosing this program, and
// registers its pipeline metrics on the server's one registry, so
// fleet-wide counters aggregate across tenants. Re-registering a cold
// (restored, not yet parsed) tenant hands it mod, so it never parses.
func (s *Server) RegisterProgram(mod *ir.Module) (TenantID, error) {
	s.init()
	text := ir.Print(mod)
	id := textFingerprint(text)
	s.fleetMu.Lock()
	t := s.tenants[id]
	if t == nil {
		if err := s.logFleet(&store.Record{Type: store.RecProgramRegistered,
			Tenant: string(id), ModuleText: text}); err != nil {
			s.fleetMu.Unlock()
			return "", err
		}
		t = s.addTenantLocked(id, text)
	}
	s.fleetMu.Unlock()
	t.load.Do(func() { s.setTenantCore(t, mod) })
	return id, nil
}

// addTenantLocked creates (or finds) the tenant's in-memory state,
// cold, without logging — registration and recovery share it, the
// former after logging the record, the latter while replaying one.
func (s *Server) addTenantLocked(id TenantID, text string) *tenant {
	if s.tenants == nil {
		s.tenants = make(map[TenantID]*tenant)
	}
	if t, ok := s.tenants[id]; ok {
		return t
	}
	t := &tenant{
		id:   id,
		text: text,
		// Case numbering starts above the shard's base, so ids from
		// different shards never collide.
		nextCase: CaseID(s.CaseBase),
		cases:    make(map[CaseID]*fleetCase),
		byPC:     make(map[ir.PC]CaseID),
	}
	s.tenants[id] = t
	s.om.fleetTenants.Inc()
	return t
}

// setTenantCore builds the tenant's analysis server over mod and drops
// its text. It runs inside t.load.Do, never under fleetMu.
func (s *Server) setTenantCore(t *tenant, mod *ir.Module) {
	cs := core.NewServer(mod)
	cs.Workers = s.Core.Workers
	cs.PT = s.Core.PT
	cs.MaxSuccessTraces = s.Core.MaxSuccessTraces
	cs.UseRegistry(s.Core.Metrics())
	t.cs, t.text = cs, ""
	s.om.fleetLoaded.Inc()
}

// tenantCore returns the tenant's analysis server, parsing a cold
// tenant's module on first use. The parse re-checks the fingerprint
// Restore verified by hash, so no module is ever used unchecked. A
// failed load is sticky: the text cannot change, so neither can the
// outcome. Callers must not hold fleetMu.
func (s *Server) tenantCore(t *tenant) (*core.Server, error) {
	t.load.Do(func() {
		mod, err := ir.Parse(t.text)
		if err == nil && ModuleFingerprint(mod) != t.id {
			err = errors.New("module text does not match fingerprint")
		}
		if err != nil {
			t.loadErr = fmt.Errorf("proto: loading tenant %.12s…: %w", t.id, err)
			return
		}
		s.setTenantCore(t, mod)
	})
	return t.cs, t.loadErr
}

// registerText parses and registers a client-uploaded program.
func (s *Server) registerText(text string) (TenantID, error) {
	mod, err := ir.Parse(text)
	if err != nil {
		return "", fmt.Errorf("parsing module: %w", err)
	}
	return s.RegisterProgram(mod)
}

func (s *Server) tenantByID(id TenantID) *tenant {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	return s.tenants[id]
}

// openCase opens (or joins) the case for a failure. Reports of a PC
// whose case already exists — collecting or already diagnosed — join
// it; the first report's snapshot is the failing trace of record.
// Opening a new case is logged before the case exists, so a crash on
// either side of the append leaves log and state agreeing.
func (s *Server) openCase(t *tenant, failure *core.FailureReport, snap *pt.Snapshot) (*fleetCase, error) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if id, ok := t.byPC[failure.PC]; ok {
		return t.cases[id], nil
	}
	id := t.nextCase + 1
	want := s.fleetQuota()
	if err := s.logFleet(&store.Record{Type: store.RecCaseOpened, Tenant: string(t.id),
		Case: uint64(id), TriggerPC: failure.PC, Want: want,
		Failure: failure, Snapshot: snap}); err != nil {
		return nil, err
	}
	t.nextCase = id
	c := &fleetCase{
		id:         id,
		triggerPC:  failure.PC,
		failing:    &core.RunReport{Failure: failure, Snapshot: snap},
		want:       want,
		seen:       make(map[string]uint64),
		collecting: true,
	}
	t.cases[c.id] = c
	t.byPC[failure.PC] = c.id
	s.om.fleetArmed.Inc()
	s.om.fleetQuotaWant.Add(int64(c.want))
	return c, nil
}

// directives lists the tenant's armed directives, in case order.
// (Iterating the map and sorting — rather than counting up from 1 —
// keeps this correct under a nonzero CaseBase, where ids start far
// above zero.)
func (s *Server) directives(t *tenant) []Directive {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	var out []Directive
	for _, c := range t.cases {
		if c.collecting {
			out = append(out, c.directive(t.id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out
}

// acceptBatch admits a batch of success snapshots into a case,
// deduplicating against each client's sequence ledger, and reports
// whether this batch crossed the quota (making the caller run the
// diagnosis). Snapshots are accepted in sequence order; a sequence
// number at or below the client's ledger is a replay and is skipped
// without consuming quota.
// Each admitted snapshot is logged (with its ledger entry) before it
// joins the case; an append failure stops the batch there, and the
// unacknowledged tail is simply re-offered by the client's retry and
// deduplicated against the ledger.
// The returned ledger value is the client's post-batch high-water
// mark; it rides the reply so agents whose reply was lost can
// reconcile their accepted counts against it.
func (s *Server) acceptBatch(t *tenant, c *fleetCase, client string, seq uint64, snaps []*pt.Snapshot) (accepted int, ledger uint64, crossed bool, err error) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if c.seen == nil {
		// The case is closed and its ledger pruned: nothing to dedupe
		// against and nothing left to accept. The reply mirrors a
		// quota-met case (zero accepted, done), so late uploaders and
		// replays see the same shape they always did — without
		// resurrecting ledger entries for a dead case. Only a replay of
		// the client's last accepting batch (the one batch whose reply
		// can still be outstanding) gets that batch's mark back.
		if m := c.marks.Of(client); seq <= m && m < seq+uint64(len(snaps)) {
			return 0, m, false, nil
		}
		return 0, 0, false, nil
	}
	seen, tracked := c.seen[client]
	for i, snap := range snaps {
		sq := seq + uint64(i)
		if sq <= seen {
			continue // replayed after a lost reply: already counted
		}
		if !c.collecting || len(c.successes) >= c.want {
			break // quota met: leave the ledger so a retry re-offers nothing
		}
		if snap == nil {
			seen = sq
			continue
		}
		if err = s.logFleet(&store.Record{Type: store.RecTraceAccepted, Tenant: string(t.id),
			Case: uint64(c.id), Client: client, Seq: sq, Snapshot: snap}); err != nil {
			break
		}
		c.successes = append(c.successes, &core.RunReport{Snapshot: snap})
		c.marks.Set(client, sq)
		seen = sq
		accepted++
	}
	c.seen[client] = seen
	if !tracked {
		s.om.fleetLedger.Inc()
	}
	if accepted > 0 {
		s.om.fleetQuotaHave.Add(int64(accepted))
	}
	if err == nil && c.collecting && len(c.successes) >= c.want {
		// If the disarm's append fails, the accepted traces above stay
		// good and the next batch (or recovery) re-detects the full
		// quota and retries the disarm.
		if err = s.disarmLocked(t, c); err != nil {
			return accepted, seen, false, err
		}
		crossed = true
	}
	return accepted, seen, crossed, err
}

// disarmLocked ends a collecting case's collection: the disarm is
// logged before it happens, and the case's share leaves the armed and
// quota gauges. A quota-crossing batch and a "publish" request both
// disarm here, under fleetMu, so exactly one of them sees the case
// collecting and runs its publishCase. The caller holds fleetMu and
// has checked c.collecting.
func (s *Server) disarmLocked(t *tenant, c *fleetCase) error {
	if err := s.logFleet(&store.Record{Type: store.RecQuotaReached,
		Tenant: string(t.id), Case: uint64(c.id)}); err != nil {
		return err
	}
	c.collecting = false
	s.om.fleetArmed.Dec()
	s.om.fleetQuotaWant.Add(-int64(c.want))
	s.om.fleetQuotaHave.Add(-int64(len(c.successes)))
	return nil
}

// disarmEarly disarms a case before its quota for a "publish" request
// and reports whether this call disarmed it, and so must publish it.
// A case that already stopped collecting is being or has been
// published by whoever disarmed it.
func (s *Server) disarmEarly(t *tenant, c *fleetCase) (bool, error) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if !c.collecting {
		return false, nil
	}
	return true, s.disarmLocked(t, c)
}

// publishCase runs Lazy Diagnosis on the case's accepted traces and
// publishes the verdict. It runs in whichever connection handler
// disarmed the case — synchronously, so Shutdown's drain covers it —
// and must be called exactly once per case, without the fleet lock.
// It loads a cold tenant first; a load error publishes nothing and is
// returned to the caller.
func (s *Server) publishCase(t *tenant, c *fleetCase) error {
	cs, err := s.tenantCore(t)
	if err != nil {
		return err
	}
	d, err := s.diagnose(cs, c.failing, c.successes)
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	rec := &store.Record{Type: store.RecReportPublished, Tenant: string(t.id), Case: uint64(c.id)}
	if err != nil {
		rec.DiagErr = err.Error()
	} else {
		rec.Diagnosis = d
	}
	// An append failure here does not block the publish: the diagnosis
	// is deterministic, so a recovery that never saw these records
	// re-runs it and lands on the identical verdict. The store's
	// sticky error still surfaces at Shutdown.
	if s.logFleet(rec) == nil {
		s.logFleet(&store.Record{Type: store.RecCaseClosed,
			Tenant: string(t.id), Case: uint64(c.id)})
	}
	c.done = true
	// The case is closed, so its dedup ledger can never admit another
	// trace — prune it, or a long-lived server leaks one entry per
	// (client, case) forever. Only the compact marks survive. The
	// close record is the logged transition: replaying it prunes the
	// persisted ledger to the same marks, so Restore rebuilds exactly
	// this post-prune state.
	if n := len(c.seen); n > 0 {
		s.om.fleetLedger.Add(-int64(n))
	}
	c.seen = nil
	if err != nil {
		c.diagErr = err.Error()
		return nil
	}
	c.diag = d
	s.om.fleetReports.Inc()
	return nil
}

// caseByID resolves a case within a tenant.
func (s *Server) caseByID(t *tenant, id CaseID) *fleetCase {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	return t.cases[id]
}

// FleetCaseTraces exposes a case's failing trace and accepted success
// traces, in acceptance order — the exact inputs the published report
// was diagnosed from. Tests use it to assert the fleet path is
// bit-identical to a direct Diagnose call on the same traces.
func (s *Server) FleetCaseTraces(tenant TenantID, id CaseID) (failing *core.RunReport, successes []*core.RunReport, ok bool) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	t := s.tenants[tenant]
	if t == nil {
		return nil, nil, false
	}
	c := t.cases[id]
	if c == nil {
		return nil, nil, false
	}
	return c.failing, append([]*core.RunReport(nil), c.successes...), true
}

// serveRequest handles one decoded request. Deterministic rejections
// reply "error" and keep the connection; it returns false only when
// the reply failed and the connection must close.
func (s *Server) serveRequest(req Request, reply func(Response) bool) bool {
	switch req.Kind {
	case "status":
		st := s.Status()
		return reply(Response{Kind: "status", Status: &st})
	case "register":
		if s.DisableRegistration {
			return reply(Response{Kind: "error", Err: "program registration is disabled on this server"})
		}
		if req.ModuleText == "" {
			return reply(Response{Kind: "error", Err: "register request missing module text"})
		}
		id, err := s.registerText(req.ModuleText)
		if err != nil {
			return reply(errorReply(err))
		}
		return reply(Response{Kind: "registered", Tenant: id})
	case "fleet-failure":
		t := s.tenantByID(req.Tenant)
		if t == nil {
			return reply(unknownTenant(req.Tenant))
		}
		if req.Failure == nil || req.Snapshot == nil {
			return reply(Response{Kind: "error", Err: "fleet-failure request missing report or snapshot"})
		}
		if cap := s.maxSnapshotBytes(); cap > 0 && snapshotBytes(req.Snapshot) > cap {
			s.om.oversizeRejects.Inc()
			return reply(Response{Kind: "error", Err: fmt.Sprintf("failure snapshot exceeds %d-byte cap", cap)})
		}
		// A case needs its tenant's module: load a cold tenant before
		// anything is logged, so a module that fails its checks opens
		// no case.
		if _, err := s.tenantCore(t); err != nil {
			return reply(errorReply(err))
		}
		c, err := s.openCase(t, req.Failure, req.Snapshot)
		if err != nil {
			return reply(errorReply(err))
		}
		s.fleetMu.Lock()
		resp := Response{Kind: "case", Tenant: t.id, Case: c.id,
			Directives: []Directive{c.directive(t.id)}, Done: c.done}
		s.fleetMu.Unlock()
		return reply(resp)
	case "directives":
		t := s.tenantByID(req.Tenant)
		if t == nil {
			return reply(unknownTenant(req.Tenant))
		}
		return reply(Response{Kind: "directives", Tenant: t.id, Directives: s.directives(t)})
	case "batch":
		t, c, rejected := s.caseOf(req)
		if c == nil {
			return reply(rejected)
		}
		if req.Client == "" || req.Seq == 0 {
			return reply(Response{Kind: "error", Err: "batch request missing client id or sequence number"})
		}
		if cap := s.maxSnapshotBytes(); cap > 0 {
			for _, snap := range req.Snapshots {
				if snapshotBytes(snap) > cap {
					s.om.oversizeRejects.Inc()
					return reply(Response{Kind: "error", Err: fmt.Sprintf("batch snapshot exceeds %d-byte cap", cap)})
				}
			}
		}
		accepted, ledger, crossed, err := s.acceptBatch(t, c, req.Client, req.Seq, req.Snapshots)
		if err == nil && crossed {
			err = s.publishCase(t, c)
		}
		if err != nil {
			return reply(errorReply(err))
		}
		s.fleetMu.Lock()
		resp := Response{Kind: "batch", Tenant: t.id, Case: c.id,
			Accepted: accepted, Done: c.done, Seq: ledger}
		s.fleetMu.Unlock()
		return reply(resp)
	case "publish":
		t, c, rejected := s.caseOf(req)
		if c == nil {
			return reply(rejected)
		}
		disarmed, err := s.disarmEarly(t, c)
		if err == nil && disarmed {
			err = s.publishCase(t, c)
		}
		if err != nil {
			return reply(errorReply(err))
		}
		return reply(s.report(t, c))
	case "report":
		t, c, rejected := s.caseOf(req)
		if c == nil {
			return reply(rejected)
		}
		return reply(s.report(t, c))
	}
	return reply(Response{Kind: "error", Err: fmt.Sprintf("unknown request %q", req.Kind)})
}

func errorReply(err error) Response { return Response{Kind: "error", Err: err.Error()} }

func unknownTenant(id TenantID) Response {
	return Response{Kind: "error", Code: CodeUnknownTenant, Err: fmt.Sprintf("unknown tenant %q", id)}
}

// caseOf resolves a case-scoped request's tenant and case; a nil case
// comes with the reply rejecting the request.
func (s *Server) caseOf(req Request) (*tenant, *fleetCase, Response) {
	t := s.tenantByID(req.Tenant)
	if t == nil {
		return nil, nil, unknownTenant(req.Tenant)
	}
	c := s.caseByID(t, req.Case)
	if c == nil {
		return t, nil, Response{Kind: "error", Code: CodeUnknownCase, Err: fmt.Sprintf("unknown case %d", req.Case)}
	}
	return t, c, Response{}
}

// report is a case's "report" reply. Diagnosis == nil with Done ==
// false means "still collecting or diagnosing; poll again" — not an
// error, so retrying clients don't treat an in-progress case as a
// rejection. A failed diagnosis replies its error.
func (s *Server) report(t *tenant, c *fleetCase) Response {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if c.diagErr != "" {
		return Response{Kind: "error", Err: c.diagErr}
	}
	return Response{Kind: "report", Tenant: t.id, Case: c.id, Diagnosis: c.diag, Done: c.done}
}

// --- client side ---

// Register uploads a program's canonical text and returns its tenant
// id. Registering the same program twice (from any client) returns the
// same id.
func (c *Conn) Register(moduleText string) (TenantID, error) {
	resp, err := c.roundTrip(Request{Kind: "register", ModuleText: moduleText})
	if err != nil {
		return "", err
	}
	if resp.Kind != "registered" || resp.Tenant == "" {
		return "", fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return resp.Tenant, nil
}

// ReportFleetFailure reports a failure under a registered tenant and
// returns the (possibly pre-existing) case and its collection
// directive. done reports whether the case has already been diagnosed,
// in which case the report can be fetched immediately.
func (c *Conn) ReportFleetFailure(t TenantID, f *core.FailureReport, snap *pt.Snapshot) (id CaseID, d Directive, done bool, err error) {
	resp, err := c.roundTrip(Request{Kind: "fleet-failure", Tenant: t, Failure: f, Snapshot: snap})
	if err != nil {
		return 0, Directive{}, false, err
	}
	if resp.Kind != "case" || len(resp.Directives) != 1 {
		return 0, Directive{}, false, fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return resp.Case, resp.Directives[0], resp.Done, nil
}

// Directives fetches the tenant's armed collection directives.
func (c *Conn) Directives(t TenantID) ([]Directive, error) {
	resp, err := c.roundTrip(Request{Kind: "directives", Tenant: t})
	if err != nil {
		return nil, err
	}
	if resp.Kind != "directives" {
		return nil, fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return resp.Directives, nil
}

// UploadBatch uploads triggered success snapshots for a case. pc is
// the case's trigger PC (from the directive), which routes the request
// to the owning shard in a sharded deployment. client names the
// uploading agent and seq is the 1-based sequence number of snaps[0]
// in that agent's per-case upload stream; together they make the
// upload idempotent — a batch replayed after a lost reply is
// recognized and not double-counted toward the quota. It returns how
// many snapshots were newly accepted and whether the case's report is
// now published.
func (c *Conn) UploadBatch(t TenantID, id CaseID, pc ir.PC, client string, seq uint64, snaps []*pt.Snapshot) (accepted int, done bool, err error) {
	accepted, _, done, err = c.UploadBatchLedger(t, id, pc, client, seq, snaps)
	return accepted, done, err
}

// UploadBatchLedger is UploadBatch plus the server's view of this
// client's sequence ledger after the batch: the highest sequence
// number ever credited toward the quota for this (client, case). A
// replayed batch returns the same ledger mark as the original, so an
// agent whose reply was lost in transit can reconcile its accepted
// count against the mark instead of trusting the replay's Accepted
// (which is 0 by design — replays never consume quota twice). ledger
// is 0 when the server has no mark: the case closed and this is not a
// replay of the client's last accepting batch, so callers fall back
// to accepted.
func (c *Conn) UploadBatchLedger(t TenantID, id CaseID, pc ir.PC, client string, seq uint64, snaps []*pt.Snapshot) (accepted int, ledger uint64, done bool, err error) {
	resp, err := c.roundTrip(Request{Kind: "batch", Tenant: t, Case: id,
		RoutePC: pc, Client: client, Seq: seq, Snapshots: snaps})
	if err != nil {
		return 0, 0, false, err
	}
	if resp.Kind != "batch" {
		return 0, 0, false, fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return resp.Accepted, resp.Seq, resp.Done, nil
}

// FetchReport fetches a case's published diagnosis; pc is the case's
// trigger PC, which routes the request to the owning shard in a
// sharded deployment. done is false while the case is still collecting
// or diagnosing (poll again); a diagnosis that failed surfaces as a
// *ServerError.
func (c *Conn) FetchReport(t TenantID, id CaseID, pc ir.PC) (d *core.Diagnosis, done bool, err error) {
	return c.caseReport("report", t, id, pc)
}

// Publish asks the server to diagnose a case now, from the traces it
// has accepted so far, instead of at its quota, and returns the report
// as FetchReport does. Publishing a published case returns its report;
// done is false only while another request is still running the case's
// diagnosis (poll FetchReport).
func (c *Conn) Publish(t TenantID, id CaseID, pc ir.PC) (d *core.Diagnosis, done bool, err error) {
	return c.caseReport("publish", t, id, pc)
}

func (c *Conn) caseReport(kind string, t TenantID, id CaseID, pc ir.PC) (*core.Diagnosis, bool, error) {
	resp, err := c.roundTrip(Request{Kind: kind, Tenant: t, Case: id, RoutePC: pc})
	if err != nil {
		return nil, false, err
	}
	if resp.Kind != "report" {
		return nil, false, fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return resp.Diagnosis, resp.Done, nil
}
