package fleet_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/fleet"
	"snorlax/internal/proto"
)

// loadPrograms builds the corpus-bug program matrix for load tests.
func loadPrograms(t *testing.T, ids ...string) []fleet.Program {
	t.Helper()
	ps := make([]fleet.Program, 0, len(ids))
	for _, id := range ids {
		bug := corpus.ByID(id)
		if bug == nil {
			t.Fatalf("unknown corpus bug %q", id)
		}
		ps = append(ps, fleet.Program{
			Fail: bug.Build(corpus.Variant{Failing: true}).Mod,
			OK:   bug.Build(corpus.Variant{Failing: false}).Mod,
		})
	}
	return ps
}

// assertSameDiagnosis checks verdict bit-identity (scores, ranking,
// anchor, trace accounting — timing stats excluded).
func assertSameDiagnosis(t *testing.T, got, want *core.Diagnosis) {
	t.Helper()
	if !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Errorf("scores diverge from direct diagnosis:\n got %v\nwant %v", got.Scores, want.Scores)
	}
	if !reflect.DeepEqual(got.Best, want.Best) || got.Unique != want.Unique {
		t.Errorf("best = %v (unique=%v), direct = %v (unique=%v)",
			got.Best, got.Unique, want.Best, want.Unique)
	}
	if got.AnchorPC != want.AnchorPC {
		t.Errorf("anchor = %d, direct = %d", got.AnchorPC, want.AnchorPC)
	}
	if got.Stats.SuccessTraces != want.Stats.SuccessTraces ||
		got.Stats.DroppedSuccesses != want.Stats.DroppedSuccesses {
		t.Errorf("used %d traces (%d dropped), direct %d (%d dropped)",
			got.Stats.SuccessTraces, got.Stats.DroppedSuccesses,
			want.Stats.SuccessTraces, want.Stats.DroppedSuccesses)
	}
}

// TestRunLoadSmoke drives a mid-size agent swarm (far above the
// per-case quota, well below the headline chaos scale) against one
// in-process fleet server and checks RunLoad's contract:
// every program's case publishes exactly once at exactly the quota,
// every agent fetches the report, and the stats are self-consistent.
func TestRunLoadSmoke(t *testing.T) {
	programs := loadPrograms(t, "dbcp-1", "httpd-4")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := proto.NewServer(core.NewServer(programs[0].Fail))
	srv.IdleTimeout = 10 * time.Second
	srv.WriteTimeout = 10 * time.Second
	go srv.Serve(ln)

	const agents = 120
	res, err := fleet.RunLoad(fleet.LoadConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Agents:       agents,
		Programs:     programs,
		Concurrency:  32,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.Agents != agents || res.Stats.Programs != len(programs) {
		t.Errorf("stats say %d agents / %d programs, want %d / %d",
			res.Stats.Agents, res.Stats.Programs, agents, len(programs))
	}
	if res.Stats.Reports != len(programs) {
		t.Errorf("published %d reports, want %d", res.Stats.Reports, len(programs))
	}
	if len(res.Cases) != len(programs) {
		t.Fatalf("got %d cases, want %d", len(res.Cases), len(programs))
	}
	totalAgents, totalAccepted := 0, 0
	for i, c := range res.Cases {
		if c.Diagnosis == nil {
			t.Fatalf("case %d (tenant %s) has no diagnosis", i, c.Tenant)
		}
		// The quota is exact: the server stops accepting at 10× and
		// every accepted snapshot is acked to exactly one agent.
		if c.Accepted != proto.DefaultFleetQuota {
			t.Errorf("case %d accepted %d snapshots, want exactly %d",
				i, c.Accepted, proto.DefaultFleetQuota)
		}
		if c.Uploaded < c.Accepted {
			t.Errorf("case %d uploaded %d < accepted %d", i, c.Uploaded, c.Accepted)
		}
		// Heavy-tailed reporting: at least as many failure reports as
		// agents, and with 60 agents/program the Pareto tail all but
		// surely produced a multi-reporter.
		if c.FailureReports < c.Agents {
			t.Errorf("case %d: %d failure reports < %d agents", i, c.FailureReports, c.Agents)
		}
		totalAgents += c.Agents
		totalAccepted += c.Accepted

		// Bit-identity: the published report matches a direct Diagnose
		// over the exact traces the server accepted for this case.
		failing, successes, ok := srv.FleetCaseTraces(c.Tenant, c.Case)
		if !ok {
			t.Fatalf("case %d: server has no trace record", i)
		}
		want, err := core.NewServer(programs[i].Fail).Diagnose(failing, successes)
		if err != nil {
			t.Fatalf("direct diagnose: %v", err)
		}
		assertSameDiagnosis(t, c.Diagnosis, want)
	}
	if totalAgents != agents {
		t.Errorf("case agent counts sum to %d, want %d", totalAgents, agents)
	}
	if res.Stats.Accepted != totalAccepted {
		t.Errorf("Stats.Accepted = %d, cases sum to %d", res.Stats.Accepted, totalAccepted)
	}
	if res.Stats.Uploaded < res.Stats.Accepted {
		t.Errorf("Stats.Uploaded = %d < Accepted = %d", res.Stats.Uploaded, res.Stats.Accepted)
	}
}

// TestRunLoadStagger checks that program waves actually stagger: with
// a coarse Stagger the second program's case cannot publish before
// the first wave has had its head start.
func TestRunLoadStagger(t *testing.T) {
	programs := loadPrograms(t, "dbcp-1", "httpd-4")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := proto.NewServer(core.NewServer(programs[0].Fail))
	srv.IdleTimeout = 10 * time.Second
	srv.WriteTimeout = 10 * time.Second
	go srv.Serve(ln)

	stagger := 150 * time.Millisecond
	start := time.Now()
	res, err := fleet.RunLoad(fleet.LoadConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Agents:       24,
		Programs:     programs,
		Concurrency:  16,
		PollInterval: time.Millisecond,
		Stagger:      stagger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < stagger {
		t.Errorf("run finished in %v, before the second wave's %v stagger", got, stagger)
	}
	for i, c := range res.Cases {
		if c.Diagnosis == nil {
			t.Fatalf("staggered case %d has no diagnosis", i)
		}
	}
}
