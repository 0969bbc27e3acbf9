package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/mc"
	"repro/internal/serve"
)

// Each check is fed an honest outcome, which must pass, and corrupted
// copies of it, each of which must fail: no check can pass vacuously.

func decided(node int, o op, val int) answer {
	return answer{op: o, node: node, status: serve.StatusDecided, val: val}
}

// honestLedger is a small outcome as a correct cluster produces it: a
// fresh instance, a contended one decided two ways (k=2 allows it), and
// reads of the pre-built journal.
func honestLedger() (*ledger, []answer) {
	l := newLedger(3, map[string]int{"p0": 7, "p1": 9})
	fresh := op{kind: opFresh, inst: "f0", val: 5}
	c0 := op{kind: opContend, inst: "c0", val: 3}
	c1 := op{kind: opContend, inst: "c0", val: 4}
	l.submit(fresh)
	l.submit(c0)
	l.submit(c1)
	return l, []answer{
		decided(0, fresh, 5),
		decided(0, c0, 3),
		decided(1, c1, 4),
		decided(0, op{kind: opQuery, inst: "p0"}, 7),
		decided(1, op{kind: opResubmit, inst: "p1", val: 100}, 9),
	}
}

func runLedger(l *ledger, as []answer) error {
	for _, a := range as {
		l.add(a)
	}
	return l.check(2)
}

func TestLedgerHonestOutcomePasses(t *testing.T) {
	l, as := honestLedger()
	if err := runLedger(l, as); err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 {
		t.Fatalf("failed = %d", l.failed)
	}
}

func TestLedgerCatchesCorruptedOutcomes(t *testing.T) {
	cases := map[string]func(l *ledger, as []answer) []answer{
		"second decided value for a fresh instance": func(l *ledger, as []answer) []answer {
			return append(as, decided(1, as[0].op, 6))
		},
		"fresh instance decides a value nobody submitted": func(l *ledger, as []answer) []answer {
			as[0].val = 6
			return as
		},
		"one node answers two values": func(l *ledger, as []answer) []answer {
			return append(as, decided(0, as[1].op, 4))
		},
		"contended instance decides more than k values": func(l *ledger, as []answer) []answer {
			c2 := op{kind: opContend, inst: "c0", val: 2}
			l.submit(c2)
			return append(as, decided(2, c2, 2))
		},
		"contended instance decides an unsubmitted value": func(l *ledger, as []answer) []answer {
			as[2].val = 1
			return as
		},
		"query answers another value than recorded": func(l *ledger, as []answer) []answer {
			as[3].val = 8
			return as
		},
		"resubmit answers its own value": func(l *ledger, as []answer) []answer {
			as[4].val = 100
			return as
		},
		"read of an instance the journal lacks": func(l *ledger, as []answer) []answer {
			return append(as, decided(0, op{kind: opQuery, inst: "p9"}, 1))
		},
		"answer for an instance never submitted": func(l *ledger, as []answer) []answer {
			return append(as, decided(0, op{kind: opFresh, inst: "f9", val: 1}, 1))
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			l, as := honestLedger()
			if err := runLedger(l, corrupt(l, as)); err == nil {
				t.Fatal("corrupted outcome passed")
			}
		})
	}
}

func TestLedgerCountsUndecidedAsFailed(t *testing.T) {
	l, as := honestLedger()
	as[0].status = serve.StatusAbstain
	if err := runLedger(l, as); err != nil {
		t.Fatal(err)
	}
	if l.failed != 1 {
		t.Fatalf("failed = %d, want 1", l.failed)
	}
}

func TestCheckJournal(t *testing.T) {
	acked := map[string]int{"a": 1, "b": 2}
	good := &serve.JournalState{Decisions: map[string]int{"a": 1, "b": 2, "c": 3}}
	if err := checkJournal(0, acked, good); err != nil {
		t.Fatal(err)
	}
	for name, js := range map[string]*serve.JournalState{
		"acknowledged decision missing": {Decisions: map[string]int{"a": 1}},
		"acknowledged decision changed": {Decisions: map[string]int{"a": 1, "b": 3}},
		"decision journaled twice":      {Decisions: map[string]int{"a": 1, "b": 2}, DuplicateDecisions: []string{"a"}},
	} {
		if err := checkJournal(0, acked, js); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckRecovered(t *testing.T) {
	acked := map[string]int{"a": 1, "b": 2}
	if err := checkRecovered(0, acked, map[string]int{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(0, acked, map[string]int{"a": 1}); err == nil {
		t.Fatal("restart that lost an acknowledged decision passed")
	}
}

func TestCampaignVerdict(t *testing.T) {
	if campaignVerdict("h", true, 0) != nil || campaignVerdict("b", false, 3) != nil {
		t.Fatal("correct verdicts failed")
	}
	if campaignVerdict("h", true, 1) == nil {
		t.Fatal("honest campaign with a violation passed")
	}
	if campaignVerdict("b", false, 0) == nil {
		t.Fatal("breaker campaign with no violation passed")
	}
}

func TestExploreVerdict(t *testing.T) {
	ok := &mc.Result{Stats: mc.Stats{Schedules: 4}, Exhausted: true}
	if err := exploreVerdict("m", ok); err != nil {
		t.Fatal(err)
	}
	if exploreVerdict("m", &mc.Result{Stats: ok.Stats, Exhausted: false}) == nil {
		t.Fatal("unfinished exploration passed")
	}
	cx := &mc.Result{Stats: ok.Stats, Exhausted: true, Counterexample: &mc.Counterexample{Err: errors.New("x")}}
	if exploreVerdict("m", cx) == nil {
		t.Fatal("exploration with a counterexample passed")
	}
}

func TestCountVerdict(t *testing.T) {
	s := mc.Stats{Schedules: 729}
	if err := countVerdict("m", 729, s, s); err != nil {
		t.Fatal(err)
	}
	if countVerdict("m", 728, s, s) == nil {
		t.Fatal("count off the closed form passed")
	}
	if countVerdict("m", 0, s, mc.Stats{Schedules: 728}) == nil {
		t.Fatal("counts differing across worker counts passed")
	}
}

func TestBugVerdict(t *testing.T) {
	cx := &mc.Result{Counterexample: &mc.Counterexample{Choices: []int{4}}}
	if err := bugVerdict("b", cx, errors.New("violation")); err != nil {
		t.Fatal(err)
	}
	if bugVerdict("b", &mc.Result{}, nil) == nil {
		t.Fatal("planted bug not found, verdict passed")
	}
	if bugVerdict("b", cx, nil) == nil {
		t.Fatal("replay that does not reproduce passed")
	}
}

// TestQuorumRuleCounts runs the service rule's explorations the
// workload runs and checks them against the closed form and the bug.
func TestQuorumRuleCounts(t *testing.T) {
	if got := perRoundSchedules(3, 1, 2); got != 729 {
		t.Fatalf("perround closed form = %d, want 729", got)
	}
	honest, err := quorumRun(agreement.QuorumKSet(1))
	if err != nil {
		t.Fatal(err)
	}
	var counts []mc.Stats
	for _, w := range []int{1, 2} {
		res, err := mc.Explore(mc.Options{Workers: w}, honest)
		if err != nil {
			t.Fatal(err)
		}
		if err := exploreVerdict("quorum", res); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Stats)
	}
	if err := countVerdict("quorum", perRoundSchedules(3, 1, 1), counts...); err != nil {
		t.Fatal(err)
	}
	buggy, err := quorumRun(agreement.QuorumKSetBuggy(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Explore(mc.Options{}, buggy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("planted bug not found")
	}
	if err := bugVerdict("buggy", res, mc.Replay(res.Counterexample.Choices, buggy)); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	d := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, q1, q3 := quartiles(d)
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", med, q1, q3)
	}
}

func TestPairGateLinesUpAndReleases(t *testing.T) {
	g := newPairGate(2)
	passed := make(chan struct{})
	go func() {
		g.arrive(0, 3)
		close(passed)
	}()
	g.arrive(1, 2) // behind position 3: side 0 must still wait
	select {
	case <-passed:
		t.Fatal("side 0 passed position 3 before side 1 reached it")
	case <-time.After(20 * time.Millisecond):
	}
	g.arrive(1, 3)
	<-passed
	g.leave(1)
	g.arrive(0, 9) // side 1 has left: nothing to wait for
	var none *pairGate
	none.leave(0)
}
