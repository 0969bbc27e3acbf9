package snapshot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/swmr"
)

// roundCell is the register payload: the owner's per-round emissions.
type roundCell struct {
	round  int
	values []core.Value // values[r-1] is the round-r emission
}

// RunRounds executes rounds rounds of the snapshot-based iterated protocol
// of §2 item 5 over n processes with resilience f: in each round a process
// appends its round value to its snapshot component, then scans until at
// most f round-r values are missing. D(i,r) is the set of processes whose
// round-r value was missing from the deciding scan.
//
// The returned trace satisfies the AtomicSnapshot(f) predicate (eq. (3),
// self-inclusion, and containment-ordered suspect sets) — that is Theorem-
// level content of §2 item 5 and is validated in this package's tests.
//
// The scheduler configuration may crash at most f processes; more would
// block the survivors and trip swmr's step budget. The outcome's Steps
// counts register operations.
func RunRounds(n, f, rounds int, cfg swmr.Config, emit msgnet.RoundEmit) (*msgnet.RoundOutcome, error) {
	if emit == nil {
		emit = msgnet.DefaultEmit
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("snapshot: %d crashes exceed resilience f=%d", len(cfg.Crash), f)
	}

	// Each body writes only its own slot; swmr.Run returning after every
	// body has finished gives the happens-before edge for reading them.
	recs := make([]*msgnet.RoundRec, n)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		rec := &msgnet.RoundRec{}
		recs[p.Me] = rec
		obj := New(p, "rounds")
		var prevMsgs map[core.PID]core.Value
		prevSus := core.NewSet(n)
		var mine []core.Value
		for r := 1; r <= rounds; r++ {
			v := emit(p.Me, r, prevMsgs, prevSus)
			mine = append(mine, v)
			if err := obj.Update(roundCell{round: r, values: mine}); err != nil {
				return nil, err
			}
			for {
				view, err := obj.Scan()
				if err != nil {
					return nil, err
				}
				present := core.NewSet(n)
				msgs := make(map[core.PID]core.Value, n)
				for j, c := range view {
					cell, ok := c.Value.(roundCell)
					if !ok || cell.round < r {
						continue
					}
					present.Add(core.PID(j))
					msgs[core.PID(j)] = cell.values[r-1]
				}
				if n-present.Count() <= f {
					d := present.Complement()
					rec.Dsets = append(rec.Dsets, d)
					rec.Views = append(rec.Views, msgs)
					prevMsgs, prevSus = msgs, d
					break
				}
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return msgnet.AssembleRoundOutcome(n, rounds, recs, out.Crashed, out.Steps), nil
}
