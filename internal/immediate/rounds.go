package immediate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/swmr"
)

// RunRounds executes rounds rounds of the iterated immediate snapshot: one
// fresh one-shot object per round, each process participating with its
// round emission. The induced RRFD trace satisfies the item 5 snapshot
// predicate with budget n−1 PLUS immediacy — the strict strengthening the
// E-series lattice records. D(i,r) is the complement of p_i's round-r
// view; the outcome's Steps counts register operations.
func RunRounds(n, rounds int, cfg swmr.Config, emit msgnet.RoundEmit) (*msgnet.RoundOutcome, error) {
	if emit == nil {
		emit = msgnet.DefaultEmit
	}
	recs := make([]*msgnet.RoundRec, n)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		rec := &msgnet.RoundRec{}
		recs[p.Me] = rec
		var prev map[core.PID]core.Value
		prevSus := core.NewSet(n)
		for r := 1; r <= rounds; r++ {
			obj := New(p, fmt.Sprintf("r%d", r))
			view, err := obj.Participate(emit(p.Me, r, prev, prevSus))
			if err != nil {
				return nil, err
			}
			d := view.Members.Complement()
			rec.Dsets = append(rec.Dsets, d)
			rec.Views = append(rec.Views, view.Values)
			prev, prevSus = view.Values, d
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return msgnet.AssembleRoundOutcome(n, rounds, recs, out.Crashed, out.Steps), nil
}
