package core

import (
	"fmt"

	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// Session drives the deployed-system loop of Figure 2 for one
// program: run until a failure occurs (step 1), then collect traces
// from successful executions at the failure PC (step 8), then
// diagnose (steps 2–7).
//
// In production the same binary both fails (rarely) and succeeds
// (usually). The corpus builds those as two delay variants with
// identical instruction layout, so a Session takes both: FailMod is
// executed until a failure is observed, OkMod supplies the successful
// executions. Passing the same module for both also works for
// programs that fail nondeterministically under scheduler seeds.
type Session struct {
	Server  *Server
	FailMod *ir.Module
	OkMod   *ir.Module
	// Seeds are tried in order for the failing run (default 1..20).
	Seeds []int64
	// SuccessRuns is how many successful traces to gather (default:
	// Server.MaxSuccessTraces).
	SuccessRuns int

	// traced is passed to the session's clients (see Client.traced).
	traced func(*RunReport, pt.Stats)
}

// NewSession builds a session with the paper's defaults.
func NewSession(failMod, okMod *ir.Module) *Session {
	return &Session{
		Server:  NewServer(failMod),
		FailMod: failMod,
		OkMod:   okMod,
	}
}

// Outcome bundles a session's diagnosis with its reproduction cost.
type Outcome struct {
	Diagnosis *Diagnosis
	// FailuresNeeded counts failing executions consumed before the
	// diagnosis — always 1 for Snorlax (§6.3: no sampling, so a
	// single failure suffices).
	FailuresNeeded int
	// RunsToFailure counts executions until the first failure.
	RunsToFailure int
	// Failure is the observed failure.
	Failure *FailureReport
	// TriggerPC is where successful executions were traced; it may
	// be a predecessor of the failure PC when the failure lies in
	// error-handling code the successful runs never reach (§4.1).
	TriggerPC ir.PC
}

// Run executes the full loop.
func (s *Session) Run() (*Outcome, error) {
	failing, successes, trigger, runs, err := s.collect()
	if err != nil {
		return nil, err
	}
	d, err := s.Server.Diagnose(failing, successes)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Diagnosis:      d,
		FailuresNeeded: 1,
		RunsToFailure:  runs,
		Failure:        failing.Failure,
		TriggerPC:      trigger,
	}, nil
}

// collect runs steps 1 and 8: it executes FailMod until a failure,
// then gathers successful OkMod traces triggered at the failure PC (or
// a predecessor, see Run). runs counts executions until the failure.
func (s *Session) collect() (failing *RunReport, successes []*RunReport, trigger ir.PC, runs int, err error) {
	seeds := s.Seeds
	if len(seeds) == 0 {
		for i := int64(1); i <= 20; i++ {
			seeds = append(seeds, i)
		}
	}
	failClient := &Client{Mod: s.FailMod, PT: s.Server.PT, traced: s.traced}
	for _, seed := range seeds {
		runs++
		rep := failClient.Run(seed, ir.NoPC)
		if rep.Failed() {
			failing = rep
			break
		}
	}
	if failing == nil {
		return nil, nil, ir.NoPC, runs, fmt.Errorf("core: no failure within %d runs", runs)
	}

	want := s.SuccessRuns
	if want <= 0 {
		want = s.Server.MaxSuccessTraces
		if want <= 0 {
			want = 10
		}
	}
	okClient := &Client{Mod: s.OkMod, PT: s.Server.PT, traced: s.traced}
	trigger = failing.Failure.PC
	for seed := int64(1); len(successes) < want && seed <= int64(want*4); seed++ {
		rep := okClient.Run(seed+1000, trigger)
		if rep.Failed() {
			continue // production mix: skip failing runs here
		}
		if !rep.Triggered {
			// The failure PC may be unreachable in successful runs
			// (error-handling code): fall back to predecessor blocks
			// until a trigger fires (§4.1).
			if pred := predecessorTrigger(s.OkMod, trigger); pred != ir.NoPC {
				trigger = pred
				continue
			}
			continue
		}
		successes = append(successes, rep)
	}
	return failing, successes, trigger, runs, nil
}

// predecessorTrigger returns the first PC of a predecessor block of
// the block containing pc, or NoPC when there is none — the paper's
// fallback when the failure location is not reached by successful
// executions.
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
