package snorlax

import (
	"context"
	"net"
	"time"

	"snorlax/internal/fleet"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// TenantID identifies a program registered with a fleet-mode server:
// the fingerprint of its canonical IR text. Registering the same
// program from any client yields the same id.
type TenantID = proto.TenantID

// CaseID numbers diagnosis cases within one tenant.
type CaseID = proto.CaseID

// Directive is a server-pushed collection order: snapshot successful
// executions at TriggerPC and upload them until the case has Want
// accepted traces (Have shows progress).
type Directive = proto.Directive

// FleetClient speaks the fleet session protocol: register programs,
// report failures, poll directives, batch-upload triggered snapshots,
// and fetch published reports. Unlike the single-program session
// (RemoteDiagnoser), every fleet operation is idempotent, so a client
// that loses its connection can simply reconnect and repeat the
// operation.
type FleetClient struct {
	conn *proto.Conn
}

// DialFleet connects to a fleet-mode diagnosis server.
func DialFleet(network, addr string) (*FleetClient, error) {
	c, err := proto.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &FleetClient{conn: c}, nil
}

// Close closes the connection.
func (f *FleetClient) Close() error { return f.conn.Close() }

// Register registers prog with the server (idempotently) and returns
// its tenant id.
func (f *FleetClient) Register(prog *Program) (TenantID, error) {
	return f.conn.Register(prog.Text())
}

// ReportFailure reports a failing execution under a tenant. It returns
// the diagnosis case — shared with every client that reported the same
// failure PC — its collection directive, and whether the case's report
// is already published.
func (f *FleetClient) ReportFailure(t TenantID, failing *Execution) (CaseID, Directive, bool, error) {
	return f.conn.ReportFleetFailure(t, failing.report.Failure, failing.Snapshot())
}

// Directives fetches the tenant's armed collection directives.
func (f *FleetClient) Directives(t TenantID) ([]Directive, error) {
	return f.conn.Directives(t)
}

// UploadBatch uploads triggered successful executions toward a case's
// quota. pc is the case's trigger PC (Directive.TriggerPC), which
// routes the upload to the owning shard in a sharded deployment.
// client names this agent and seq is the 1-based sequence number of
// successes[0] in the agent's per-case upload stream; the pair makes
// the upload idempotent across retries. It returns how many traces
// were newly accepted and whether the case's report is now published.
func (f *FleetClient) UploadBatch(t TenantID, id CaseID, pc PC, client string, seq uint64, successes []*Execution) (accepted int, done bool, err error) {
	snaps := make([]*pt.Snapshot, len(successes))
	for i, e := range successes {
		snaps[i] = e.Snapshot()
	}
	return f.conn.UploadBatch(t, id, pc, client, seq, snaps)
}

// FetchReport fetches a case's published report, rendered against
// prog; pc is the case's trigger PC, which routes the fetch to the
// owning shard in a sharded deployment. done is false while the case
// is still collecting (poll again).
func (f *FleetClient) FetchReport(prog *Program, t TenantID, id CaseID, pc PC) (r *Report, done bool, err error) {
	d, done, err := f.conn.FetchReport(t, id, pc)
	if err != nil || d == nil {
		return nil, done, err
	}
	return newReport(prog, d), done, nil
}

// FleetConfig tunes RunFleet's simulated production agents.
type FleetConfig struct {
	// Context, when non-nil, bounds the whole run: agents abandon
	// retries, collection and report polling as soon as it is done.
	// nil means only OpTimeout bounds the run.
	Context context.Context
	// Clients is how many agents run (default 4).
	Clients int
	// BatchSize is how many triggered snapshots an agent buffers per
	// upload (default 2).
	BatchSize int
	// SeedBase offsets every agent's scheduling seeds (default 1).
	SeedBase int64
	// OpTimeout bounds each wire round trip and the final
	// report-polling phase (default 30s).
	OpTimeout time.Duration
}

// FleetResult is a simulated fleet's collective outcome.
type FleetResult struct {
	Tenant TenantID
	Case   CaseID
	// TriggerPC is the case's trigger (and routing) PC — pass it to
	// FetchReport and UploadBatch to reach the owning shard.
	TriggerPC PC
	// Report is the server-published diagnosis.
	Report *Report
	// Uploaded counts agent uploads before server dedupe; Accepted how
	// many the server admitted toward the quota.
	Uploaded, Accepted int
}

// RunFleet simulates a production fleet against a fleet-mode server at
// addr: Clients agents register failing (the deployed build, and the
// program under diagnosis), reproduce its failure, report it — joining
// one shared case — then run ok (the successful build) with the
// directive's trigger armed and batch-upload triggered snapshots until
// the server reaches its quota and publishes the report.
func RunFleet(network, addr string, failing, ok *Program, cfg FleetConfig) (*FleetResult, error) {
	res, err := fleet.Run(
		fleet.Program{Fail: failing.mod, OK: ok.mod},
		fleet.Config{
			Dial:      func() (net.Conn, error) { return net.Dial(network, addr) },
			Context:   cfg.Context,
			Clients:   cfg.Clients,
			BatchSize: cfg.BatchSize,
			SeedBase:  cfg.SeedBase,
			OpTimeout: cfg.OpTimeout,
		})
	if err != nil {
		return nil, err
	}
	out := &FleetResult{
		Tenant:   res.Tenant,
		Case:     res.Case,
		Report:   newReport(failing, res.Diagnosis),
		Uploaded: res.Uploaded,
		Accepted: res.Accepted,
	}
	if res.Failure != nil {
		out.TriggerPC = res.Failure.PC
	}
	return out, nil
}
