package msgnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// RoundEmit computes the message process me emits at round r given the
// previous round's receptions (nil at round 1) and suspect set.
type RoundEmit func(me core.PID, r int, received map[core.PID]core.Value, suspects core.Set) core.Value

// DefaultEmit is the RoundEmit a nil emit stands for: process me emits
// the tag "p<me>@r<r>".
func DefaultEmit(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
	return fmt.Sprintf("p%d@r%d", me, r)
}

// RoundOutcome is the result of running a round protocol on any
// substrate — message passing, reliable links, TCP, snapshots.
type RoundOutcome struct {
	// Trace is the induced RRFD trace: Active at round r is the set of
	// processes that completed the round, Suspects[i] is D(i,r).
	Trace *core.Trace

	// Views[i][r-1] maps each process in S(i,r) to its round-r message.
	Views map[core.PID][]map[core.PID]core.Value

	// Crashed is the set of processes crashed by the scheduler.
	Crashed core.Set

	// Steps is the number of substrate operations scheduled (milliseconds
	// on the network substrate).
	Steps int
}

// RoundMsg is the round protocol's wire payload: the round number and
// the emitted value.
type RoundMsg struct {
	Round int
	Value core.Value
}

// Stall records one watchdog firing: process P gave up waiting in Round,
// still missing the round messages of Missing, at tick Step of its
// substrate clock (a scheduler step, or a millisecond on the network).
type Stall struct {
	P       core.PID
	Round   int
	Missing []core.PID
	Step    int
}

// String renders the stall for diagnostics.
func (s Stall) String() string {
	return fmt.Sprintf("p%d stalled in round %d waiting on %v (step %d)", s.P, s.Round, s.Missing, s.Step)
}

// RoundRec is one process's record of a round-protocol execution: its
// per-round suspect sets (D(i,r)) and views (S(i,r) with payloads). Every
// round runner fills one RoundRec per process and hands them to
// AssembleRoundOutcome.
type RoundRec struct {
	Dsets []core.Set
	Views []map[core.PID]core.Value
}

// CheckRoundShape rejects round-protocol shapes no execution can have:
// n > 0 processes, resilience 0 ≤ f < n, rounds ≥ 0.
func CheckRoundShape(n, f, rounds int) error {
	if n <= 0 || f < 0 || f >= n || rounds < 0 {
		return fmt.Errorf("msgnet: invalid round shape n=%d f=%d rounds=%d", n, f, rounds)
	}
	return nil
}

// RunSubstrateRounds is the one body of the round-based f-resilient
// asynchronous protocol of §2 item 3, run by the calling process over
// any Substrate of sub.Size() processes: in each round it broadcasts its
// round message, then receives until it holds n−f messages of the
// current round — buffering messages that are early and discarding
// messages that are late (the Bracha and Coan construction the paper
// cites). D(i,r) is the set of processes whose round-r message was
// missing when p_i advanced.
//
// With watchdog > 0 a round that waits watchdog clock ticks gives up:
// every still-missing sender is suspected for the round, the Stall is
// recorded and a "round.watchdog" event goes to o. With watchdog ≤ 0 the
// body receives with a blocking Recv, so only the substrate can end a
// stuck round (msgnet's scheduler with a *DeadlockError). After its last
// round the process lingers for linger ticks, receiving and discarding,
// so slower peers can still complete against it.
//
// The body only ever sees absolute Clock deadlines, so it runs unchanged
// on the virtual scheduler (ticks are steps), on reliable links, and on
// the TCP mesh (ticks are milliseconds). It returns the process's round
// record and stalls even alongside an error.
func RunSubstrateRounds(sub Substrate, f, rounds, watchdog, linger int, emit RoundEmit, o obs.Observer) (*RoundRec, []Stall, error) {
	n, me := sub.Size(), sub.PID()
	rec := &RoundRec{}
	if err := CheckRoundShape(n, f, rounds); err != nil {
		return rec, nil, err
	}
	if emit == nil {
		emit = DefaultEmit
	}
	recv := func(deadline int) (Envelope, bool, error) {
		if watchdog <= 0 {
			env, err := sub.Recv()
			return env, true, err
		}
		return sub.RecvTimeout(deadline)
	}
	var stalls []Stall
	// future buffers messages from rounds ahead of ours.
	future := make(map[int]map[core.PID]core.Value)
	var prevMsgs map[core.PID]core.Value
	prevSus := core.NewSet(n)
	for r := 1; r <= rounds; r++ {
		v := emit(me, r, prevMsgs, prevSus)
		if err := sub.Broadcast(RoundMsg{Round: r, Value: v}); err != nil {
			return rec, stalls, err
		}
		got := future[r]
		if got == nil {
			got = make(map[core.PID]core.Value)
		}
		delete(future, r)
		deadline := sub.Clock() + watchdog
		for len(got) < n-f {
			env, ok, err := recv(deadline)
			if err != nil {
				return rec, stalls, err
			}
			if !ok {
				// Watchdog: give the round up and suspect whoever is
				// still missing.
				missing := make([]core.PID, 0, n-len(got))
				for i := 0; i < n; i++ {
					if _, have := got[core.PID(i)]; !have {
						missing = append(missing, core.PID(i))
					}
				}
				stalls = append(stalls, Stall{P: me, Round: r, Missing: missing, Step: sub.Clock()})
				if o != nil {
					o.Event("round.watchdog", r, int(me), map[string]any{"missing": len(missing), "tick": sub.Clock()})
				}
				break
			}
			m, isRound := env.Payload.(RoundMsg)
			if !isRound {
				return rec, stalls, fmt.Errorf("msgnet: foreign payload %T", env.Payload)
			}
			switch {
			case m.Round == r:
				got[env.From] = m.Value
			case m.Round > r: // early: buffer
				if future[m.Round] == nil {
					future[m.Round] = make(map[core.PID]core.Value)
				}
				future[m.Round][env.From] = m.Value
			default: // late: discard
			}
		}
		d := core.FullSet(n)
		for p := range got {
			d.Remove(p)
		}
		rec.Dsets = append(rec.Dsets, d)
		rec.Views = append(rec.Views, got)
		prevMsgs, prevSus = got, d
	}
	return rec, stalls, Linger(sub, sub.Clock()+linger)
}

// Linger keeps sub receiving, and discarding, until its clock reaches the
// absolute tick until — so a finished process's queued frames drain and
// slower peers can still complete their last rounds against it. On a
// reliable link every receive also serves acknowledgements and
// retransmissions.
func Linger(sub Substrate, until int) error {
	for sub.Clock() < until {
		if _, _, err := sub.RecvTimeout(until); err != nil {
			return err
		}
	}
	return nil
}

// RunRounds executes the §2 item 3 round protocol (RunSubstrateRounds,
// without a watchdog) at every process of an unreliable msgnet execution.
//
// The induced trace satisfies eq. (3) — |D(i,r)| ≤ f — by construction; the
// tests validate exactly that, and that it can violate the shared-memory
// predicate eq. (4), which is the paper's point about network partitions
// when 2f ≥ n.
func RunRounds(n, f, rounds int, cfg Config, emit RoundEmit) (*RoundOutcome, error) {
	if err := CheckRoundShape(n, f, rounds); err != nil {
		return nil, err
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("msgnet: %d crashes exceed resilience f=%d", len(cfg.Crash), f)
	}

	recs := make([]*RoundRec, n)
	out, err := Run(n, cfg, func(nd *Node) (core.Value, error) {
		rec, _, err := RunSubstrateRounds(nd, f, rounds, 0, 0, emit, nil)
		recs[nd.Me] = rec
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return AssembleRoundOutcome(n, rounds, recs, out.Crashed, out.Steps), nil
}

// AssembleRoundOutcome builds the induced RRFD trace from per-process
// round records: Active at round r is every process with an r-th record,
// Suspects[i] is its D(i,r), Deliver[i] the complement, and a process
// that stopped recording is marked Crashed when the substrate crashed it.
// Trace assembly stops at the first round nobody completed. Nil entries
// of recs are treated as empty records.
func AssembleRoundOutcome(n, rounds int, recs []*RoundRec, crashed core.Set, steps int) *RoundOutcome {
	res := &RoundOutcome{
		Trace:   core.NewTrace(n),
		Views:   make(map[core.PID][]map[core.PID]core.Value, n),
		Crashed: crashed,
		Steps:   steps,
	}
	empty := &RoundRec{}
	rec := func(i int) *RoundRec {
		if recs[i] == nil {
			return empty
		}
		return recs[i]
	}
	for i := 0; i < n; i++ {
		res.Views[core.PID(i)] = rec(i).Views
	}
	for r := 1; r <= rounds; r++ {
		rr := core.RoundRecord{
			R:        r,
			Suspects: make([]core.Set, n),
			Deliver:  make([]core.Set, n),
			Active:   core.NewSet(n),
			Crashed:  core.NewSet(n),
		}
		for i := 0; i < n; i++ {
			pid := core.PID(i)
			if len(rec(i).Dsets) >= r {
				rr.Active.Add(pid)
				rr.Suspects[i] = rec(i).Dsets[r-1]
				rr.Deliver[i] = rec(i).Dsets[r-1].Complement()
			} else {
				rr.Suspects[i] = core.NewSet(n)
				rr.Deliver[i] = core.NewSet(n)
				if crashed.Has(pid) {
					rr.Crashed.Add(pid)
				}
			}
		}
		if rr.Active.Empty() {
			break
		}
		res.Trace.Append(rr)
	}
	return res
}
