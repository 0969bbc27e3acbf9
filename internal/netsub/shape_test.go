package netsub

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
)

// TestRoundHarnessesRejectBadShape: every round harness — the unreliable
// virtual one, the reliable-link one and the TCP one — runs the same
// msgnet round body, so all three reject the same impossible shapes with
// the same error instead of producing a trace in which every process
// suspects everyone.
func TestRoundHarnessesRejectBadShape(t *testing.T) {
	shapes := []struct{ n, f, rounds int }{
		{3, 3, 2},  // f = n: no quorum left
		{3, 5, 2},  // f > n
		{3, -1, 2}, // negative resilience
		{3, 1, -1}, // negative round count
		{0, 0, 1},  // no processes
	}
	for _, s := range shapes {
		want := msgnet.CheckRoundShape(s.n, s.f, s.rounds)
		if want == nil {
			t.Fatalf("n=%d f=%d rounds=%d: CheckRoundShape accepted it", s.n, s.f, s.rounds)
		}
		_, merr := msgnet.RunRounds(s.n, s.f, s.rounds, msgnet.Config{}, nil)
		_, rrep, rerr := reliablelink.RunRounds(s.n, s.f, s.rounds, reliablelink.RoundsConfig{}, nil)
		_, nrep, nerr := RunRounds(s.n, s.f, s.rounds, RoundsConfig{Node: testConfig()}, nil)
		for name, err := range map[string]error{"msgnet": merr, "reliablelink": rerr, "netsub": nerr} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("n=%d f=%d rounds=%d: %s err = %v, want %v", s.n, s.f, s.rounds, name, err, want)
			}
		}
		if rrep == nil || nrep == nil {
			t.Errorf("n=%d f=%d rounds=%d: nil RunReport alongside the shape error", s.n, s.f, s.rounds)
		}
	}
}

// TestRunRoundsReportsLowestFailingPID: when several nodes fail, the
// harness's error names the lowest failing pid, not whichever one a map
// iteration happened to visit first.
func TestRunRoundsReportsLowestFailingPID(t *testing.T) {
	const n, f, rounds = 4, 1, 1
	// p1 and p3 emit a value the wire codec cannot encode, so their
	// broadcasts fail; p0 and p2 stall into suspicions and finish.
	emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		if me == 1 || me == 3 {
			return 1.5
		}
		return int(me)
	}
	for i := 0; i < 4; i++ {
		_, rep, err := RunRounds(n, f, rounds, RoundsConfig{
			Node:     testConfig(),
			Watchdog: 100 * time.Millisecond,
			Linger:   10 * time.Millisecond,
		}, emit)
		if len(rep.Errs) != 2 || rep.Errs[1] == nil || rep.Errs[3] == nil {
			t.Fatalf("run %d: per-node errors %v, want p1 and p3", i, rep.Errs)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "netsub: p1: ") {
			t.Fatalf("run %d: err = %v, want it to name p1", i, err)
		}
	}
}
