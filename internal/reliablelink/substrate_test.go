package reliablelink

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
)

// TestRoundBodyOverLinkWithoutWatchdog runs msgnet's round body over
// links with the watchdog off, so every receive goes through the link's
// blocking Recv: with unacked frames it must keep waking for their
// retransmission timers, so 30% loss still completes every round with
// |D(i,r)| ≤ f and no stall.
func TestRoundBodyOverLinkWithoutWatchdog(t *testing.T) {
	const n, f, rounds = 4, 1, 3
	plan := faultnet.Plan{Seed: 5, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.3}}}
	recs := make([]*msgnet.RoundRec, n)
	links := make([]*Link, n)
	out, err := msgnet.Run(n, msgnet.Config{Chooser: msgnet.Seeded(3), Faults: plan.Injector()}, func(nd *msgnet.Node) (core.Value, error) {
		links[nd.Me] = New(nd, Config{})
		rec, stalls, err := msgnet.RunSubstrateRounds(links[nd.Me], f, rounds, 0, 2000, nil, nil)
		if len(stalls) > 0 {
			t.Errorf("p%d stalled without a watchdog: %v", nd.Me, stalls)
		}
		recs[nd.Me] = rec
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Errs) > 0 {
		t.Fatalf("process errors: %v", out.Errs)
	}
	retransmissions := 0
	for _, l := range links {
		retransmissions += l.Stats().Retransmissions
	}
	if retransmissions == 0 {
		t.Fatal("30% drop but zero retransmissions — the loss path was never exercised")
	}
	for i, rec := range recs {
		if len(rec.Dsets) != rounds {
			t.Fatalf("p%d completed %d rounds, want %d", i, len(rec.Dsets), rounds)
		}
		for r, d := range rec.Dsets {
			if d.Count() > f {
				t.Fatalf("p%d round %d: |D| = %d > f", i, r+1, d.Count())
			}
		}
	}
}
