package main

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mc"
	"repro/internal/serve"
)

// ledger accumulates every answer of a service run and checks them
// against what was submitted and against the pre-built journal's
// recorded values. The checks compare with the properties the quorum
// rule must have (validity, at most k distinct decisions, one answer per
// node and instance), never with stored output of an earlier run.
type ledger struct {
	recorded  map[string]int    // pre-built instance → value recorded while building
	submitted map[string][]int  // fresh or contended instance → values proposed
	kind      map[string]opKind // fresh or contended instance → its kind
	decided   map[string][]int  // fresh or contended instance → distinct values answered
	acked     []map[string]int  // node → instance → value it acknowledged
	errs      []error           // the first few failed checks
	failed    int64             // ops with no decided answer
	byKind    [4]int64          // answered ops by kind
}

func newLedger(nodes int, recorded map[string]int) *ledger {
	l := &ledger{
		recorded:  recorded,
		submitted: map[string][]int{},
		kind:      map[string]opKind{},
		decided:   map[string][]int{},
		acked:     make([]map[string]int, nodes),
	}
	for i := range l.acked {
		l.acked[i] = map[string]int{}
	}
	return l
}

func (l *ledger) fail(format string, args ...any) {
	if len(l.errs) < 8 {
		l.errs = append(l.errs, fmt.Errorf(format, args...))
	}
}

// submit notes that val was proposed to a fresh or contended instance.
func (l *ledger) submit(o op) {
	l.kind[o.inst] = o.kind
	l.submitted[o.inst] = addDistinct(l.submitted[o.inst], o.val)
}

// add records one answer. A query of a pre-built instance answers
// "decided" too; anything else that is not "decided" is a failed op.
func (l *ledger) add(a answer) {
	if a.status != serve.StatusDecided {
		l.failed++
		return
	}
	l.byKind[a.op.kind]++
	if prev, ok := l.acked[a.node][a.op.inst]; ok && prev != a.val {
		l.fail("node %d answered instance %s with %d and with %d", a.node, a.op.inst, prev, a.val)
	}
	l.acked[a.node][a.op.inst] = a.val
	switch a.op.kind {
	case opQuery, opResubmit:
		want, ok := l.recorded[a.op.inst]
		if !ok {
			l.fail("%s of %s, which the pre-built journal does not hold", a.op.kind, a.op.inst)
		} else if a.val != want {
			l.fail("%s of pre-built %s answered %d, recorded %d", a.op.kind, a.op.inst, a.val, want)
		}
	default:
		l.decided[a.op.inst] = addDistinct(l.decided[a.op.inst], a.val)
	}
}

// check runs the end-of-run checks over every fresh and contended
// instance: a fresh instance decides exactly the value submitted to it;
// a contended one shows at most k distinct decided values, each of them
// submitted to it.
func (l *ledger) check(k int) error {
	insts := make([]string, 0, len(l.decided))
	for inst := range l.decided {
		insts = append(insts, inst)
	}
	sort.Strings(insts)
	for _, inst := range insts {
		got, sub := l.decided[inst], l.submitted[inst]
		switch l.kind[inst] {
		case opFresh:
			if len(sub) != 1 || len(got) != 1 || got[0] != sub[0] {
				l.fail("fresh instance %s submitted %v, decided %v", inst, sub, got)
			}
		case opContend:
			if len(got) > k {
				l.fail("contended instance %s decided %d distinct values %v, more than k=%d", inst, len(got), got, k)
			}
			for _, v := range got {
				if !containsInt(sub, v) {
					l.fail("contended instance %s decided %d, which nobody submitted (%v)", inst, v, sub)
				}
			}
		default:
			l.fail("instance %s was answered but never submitted", inst)
		}
	}
	return errors.Join(l.errs...)
}

// checkJournal checks one node's journal, read offline, against the
// decisions that node acknowledged: every one is there with the same
// value, and no instance carries two decision records.
func checkJournal(node int, acked map[string]int, js *serve.JournalState) error {
	var errs []error
	if len(js.DuplicateDecisions) > 0 {
		errs = append(errs, fmt.Errorf("node %d journal decides %d instances twice, e.g. %s",
			node, len(js.DuplicateDecisions), js.DuplicateDecisions[0]))
	}
	if err := containsAll(acked, js.Decisions); err != nil {
		errs = append(errs, fmt.Errorf("node %d journal: %w", node, err))
	}
	return errors.Join(errs...)
}

// checkRecovered checks that a restarted node's replayed decision table
// holds every decision it acknowledged before the kill.
func checkRecovered(node int, acked, recovered map[string]int) error {
	if err := containsAll(acked, recovered); err != nil {
		return fmt.Errorf("restarted node %d: %w", node, err)
	}
	return nil
}

// containsAll reports the first acknowledged decision that have lacks or
// holds with another value.
func containsAll(acked, have map[string]int) error {
	missing, wrong := 0, 0
	var first error
	for inst, v := range acked {
		got, ok := have[inst]
		switch {
		case !ok:
			missing++
			if first == nil {
				first = fmt.Errorf("acknowledged decision %s=%d missing", inst, v)
			}
		case got != v:
			wrong++
			if first == nil {
				first = fmt.Errorf("acknowledged decision %s=%d holds %d", inst, v, got)
			}
		}
	}
	if first != nil {
		return fmt.Errorf("%d acknowledged decisions missing, %d with another value; %w", missing, wrong, first)
	}
	return nil
}

// campaignVerdict checks one chaos campaign's violation count: an
// honest campaign must report none, a planted bug or breaker plan at
// least one.
func campaignVerdict(name string, honest bool, violations int) error {
	if honest && violations > 0 {
		return fmt.Errorf("%s: honest campaign reported %d violations", name, violations)
	}
	if !honest && violations == 0 {
		return fmt.Errorf("%s: planted fault not caught", name)
	}
	return nil
}

// exploreVerdict checks an mc exploration that must prove its property:
// it ran to the end and found no counterexample.
func exploreVerdict(name string, res *mc.Result) error {
	if res.Counterexample != nil {
		return fmt.Errorf("%s: counterexample %v", name, res.Counterexample)
	}
	if !res.Exhausted {
		return fmt.Errorf("%s: exploration did not run to the end (%d schedules)", name, res.Schedules)
	}
	return nil
}

// countVerdict checks a schedule count: against a closed form when the
// space has one (want > 0), and between explorations at different
// worker counts always.
func countVerdict(name string, want int, counts ...mc.Stats) error {
	for _, s := range counts[1:] {
		if s != counts[0] {
			return fmt.Errorf("%s: exploration counts differ across worker counts: %+v vs %+v", name, counts[0], s)
		}
	}
	if want > 0 && counts[0].Schedules != want {
		return fmt.Errorf("%s: %d schedules, closed form gives %d", name, counts[0].Schedules, want)
	}
	return nil
}

// bugVerdict checks a planted-bug exploration: it yields a
// counterexample, and replaying its choice string reproduces the
// violation (replayErr is what mc.Replay returned).
func bugVerdict(name string, res *mc.Result, replayErr error) error {
	if res.Counterexample == nil {
		return fmt.Errorf("%s: planted bug not found in %d schedules", name, res.Schedules)
	}
	if replayErr == nil {
		return fmt.Errorf("%s: replay of %s does not reproduce the violation", name, mc.FormatChoices(res.Counterexample.Choices))
	}
	return nil
}

// perRoundSchedules is the closed-form size of the eq. (3) adversary's
// schedule space: each of n processes in each of rounds rounds suspects
// a set of at most f of the other n−1, so there are
// (Σ_{j≤f} C(n−1, j))^(n·rounds) schedules.
func perRoundSchedules(n, f, rounds int) int {
	per := 0
	for j := 0; j <= f; j++ {
		per += binom(n-1, j)
	}
	total := 1
	for i := 0; i < n*rounds; i++ {
		total *= per
	}
	return total
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

func addDistinct(s []int, v int) []int {
	if containsInt(s, v) {
		return s
	}
	return append(s, v)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
