package store

import (
	"fmt"
	"sort"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// State is the fleet state a log replay reconstructs: every registered
// program, every case with its accepted traces in acceptance order,
// every client's dedup ledger, and every published verdict. The WAL
// maintains one internally (the same apply used during recovery runs
// on every append) so snapshots are always self-consistent with the
// log; the proto server rebuilds its in-memory structures from it on
// startup.
type State struct {
	// Programs lists tenants in registration order, which is also
	// replay order — recovery re-registers them in the same sequence a
	// live server did.
	Programs []*ProgramState

	// byTenant indexes Programs; rebuilt after gob decode, which skips
	// unexported fields.
	byTenant map[string]*ProgramState
}

// ProgramState is one tenant's durable state.
type ProgramState struct {
	// Tenant is the module fingerprint, ModuleText the canonical IR
	// text it fingerprints — enough to rebuild the tenant's analysis
	// server from scratch.
	Tenant     string
	ModuleText string
	// NextCase is the highest case number assigned so far.
	NextCase uint64
	Cases    map[uint64]*CaseState
}

// CaseState is one diagnosis case's durable state.
type CaseState struct {
	ID        uint64
	TriggerPC ir.PC
	Want      int
	// Failure and FailSnapshot are the failing trace of record.
	Failure      *core.FailureReport
	FailSnapshot *pt.Snapshot
	// Successes holds the accepted snapshots in acceptance order — the
	// exact diagnosis inputs, in the exact order, of the live run.
	Successes []*pt.Snapshot
	// Clients is the per-client dedup ledger: highest accepted
	// sequence number per uploader.
	Clients map[string]uint64
	// Marks is what the close keeps of Clients: each client's final
	// mark, so a replay of a client's last batch gets the same reply
	// from a restored server as from the live one.
	Marks Marks
	// Collecting is true while the directive is armed; Done flips with
	// the case-closed record.
	Collecting bool
	Done       bool
	// Diagnosis or DiagErr carry the published verdict, if the case
	// got that far before the log ended.
	Diagnosis *core.Diagnosis
	DiagErr   string
}

// Mark is one client's ledger entry on a case: the sequence number of
// its latest accepted trace.
type Mark struct {
	Client string
	Seq    uint64
}

// Marks holds a case's marks, one per client with accepted traces, so
// at most the case's quota of them. A slice, not a map: it stays on
// every closed case, and a linear scan of a few entries is cheap.
type Marks []Mark

// Of returns client's mark, or 0.
func (ms Marks) Of(client string) uint64 {
	for _, m := range ms {
		if m.Client == client {
			return m.Seq
		}
	}
	return 0
}

// Set records seq as client's mark.
func (ms *Marks) Set(client string, seq uint64) {
	for i := range *ms {
		if (*ms)[i].Client == client {
			(*ms)[i].Seq = seq
			return
		}
	}
	*ms = append(*ms, Mark{Client: client, Seq: seq})
}

// NewState returns an empty fleet state.
func NewState() *State {
	return &State{byTenant: make(map[string]*ProgramState)}
}

// withoutTexts returns a copy of st whose programs leave out their
// module texts; everything else is shared with st.
func (st *State) withoutTexts() *State {
	progs := make([]*ProgramState, len(st.Programs))
	for i, p := range st.Programs {
		cp := *p
		cp.ModuleText = ""
		progs[i] = &cp
	}
	return &State{Programs: progs}
}

// reindex rebuilds the tenant index after a gob decode.
func (st *State) reindex() {
	st.byTenant = make(map[string]*ProgramState, len(st.Programs))
	for _, p := range st.Programs {
		st.byTenant[p.Tenant] = p
	}
}

// Program returns the tenant's state, or nil.
func (st *State) Program(tenant string) *ProgramState {
	return st.byTenant[tenant]
}

// program and fleetCase resolve a record's target, erroring the way
// apply needs: a record referencing something the log never created
// is corruption, and recovery truncates at it.
func (st *State) program(rec *Record) (*ProgramState, error) {
	p := st.byTenant[rec.Tenant]
	if p == nil {
		return nil, fmt.Errorf("%s record for unregistered tenant %.12q", rec.Type, rec.Tenant)
	}
	return p, nil
}

func (st *State) fleetCase(rec *Record) (*CaseState, error) {
	p, err := st.program(rec)
	if err != nil {
		return nil, err
	}
	c := p.Cases[rec.Case]
	if c == nil {
		return nil, fmt.Errorf("%s record for unopened case %d of tenant %.12q", rec.Type, rec.Case, rec.Tenant)
	}
	return c, nil
}

// apply folds one record into the state. A record that does not apply
// cleanly — unknown type, unknown tenant or case, an out-of-sequence
// case number — is treated exactly like a failed checksum: the log is
// corrupt from here on, and the caller truncates.
func (st *State) apply(rec *Record) error {
	switch rec.Type {
	case RecProgramRegistered:
		if rec.Tenant == "" || rec.ModuleText == "" {
			return fmt.Errorf("%s record missing tenant or module text", rec.Type)
		}
		if st.byTenant[rec.Tenant] != nil {
			return fmt.Errorf("%s record re-registers tenant %.12q", rec.Type, rec.Tenant)
		}
		p := &ProgramState{
			Tenant:     rec.Tenant,
			ModuleText: rec.ModuleText,
			Cases:      make(map[uint64]*CaseState),
		}
		st.Programs = append(st.Programs, p)
		st.byTenant[p.Tenant] = p
	case RecCaseOpened:
		p, err := st.program(rec)
		if err != nil {
			return err
		}
		// Case numbers must be strictly increasing, but need not be
		// contiguous: a sharded deployment namespaces each shard's
		// cases under a per-shard base (ServeConfig.CaseBase), so the
		// first case a shard opens can sit far above zero.
		if rec.Case <= p.NextCase {
			return fmt.Errorf("%s record opens case %d, but case numbers already reached %d", rec.Type, rec.Case, p.NextCase)
		}
		if rec.Want <= 0 {
			return fmt.Errorf("%s record wants %d traces", rec.Type, rec.Want)
		}
		p.NextCase = rec.Case
		p.Cases[rec.Case] = &CaseState{
			ID:           rec.Case,
			TriggerPC:    rec.TriggerPC,
			Want:         rec.Want,
			Failure:      rec.Failure,
			FailSnapshot: rec.Snapshot,
			Clients:      make(map[string]uint64),
			Collecting:   true,
		}
	case RecTraceAccepted:
		c, err := st.fleetCase(rec)
		if err != nil {
			return err
		}
		if rec.Client == "" || rec.Seq == 0 {
			return fmt.Errorf("%s record missing client id or sequence number", rec.Type)
		}
		c.Successes = append(c.Successes, rec.Snapshot)
		if rec.Seq > c.Clients[rec.Client] {
			c.Clients[rec.Client] = rec.Seq
		}
	case RecQuotaReached:
		c, err := st.fleetCase(rec)
		if err != nil {
			return err
		}
		c.Collecting = false
	case RecReportPublished:
		c, err := st.fleetCase(rec)
		if err != nil {
			return err
		}
		if (rec.Diagnosis == nil) == (rec.DiagErr == "") {
			return fmt.Errorf("%s record needs exactly one of diagnosis and error", rec.Type)
		}
		c.Diagnosis = rec.Diagnosis
		c.DiagErr = rec.DiagErr
		c.Collecting = false
	case RecCaseClosed:
		c, err := st.fleetCase(rec)
		if err != nil {
			return err
		}
		c.Done = true
		c.Collecting = false
		// A closed case can never admit another trace, so its dedup
		// ledger is pruned to the compact marks — the live server does
		// the same at publish, and replayed state must land on the
		// same shape.
		if c.Clients != nil {
			for client, seq := range c.Clients {
				c.Marks = append(c.Marks, Mark{Client: client, Seq: seq})
			}
			sort.Slice(c.Marks, func(i, j int) bool { return c.Marks[i].Client < c.Marks[j].Client })
			c.Clients = nil
		}
	default:
		return fmt.Errorf("unknown record type %d", uint8(rec.Type))
	}
	return nil
}
