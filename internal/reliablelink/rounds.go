package reliablelink

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// RoundsConfig tunes a reliable round-protocol execution.
type RoundsConfig struct {
	// Net configures the underlying lossy substrate (chooser, crashes,
	// fault injection, observer, step budget).
	Net msgnet.Config

	// Link configures each process's reliable endpoint.
	Link Config

	// WatchdogSteps is how many steps a process waits within one round —
	// retransmitting all the while — before it gives the round up, records
	// every still-missing sender as suspected for the round (the D(i,r)
	// entries) and moves on; 0 means 4096.
	WatchdogSteps int

	// LingerSteps is how long a process that finished its last round keeps
	// serving acknowledgements and retransmissions before returning, so
	// that slower peers can still complete; 0 means 1024.
	LingerSteps int
}

func (c RoundsConfig) watchdog() int {
	if c.WatchdogSteps <= 0 {
		return 4096
	}
	return c.WatchdogSteps
}

func (c RoundsConfig) linger() int {
	if c.LingerSteps <= 0 {
		return 1024
	}
	return c.LingerSteps
}

// RunReport is the structured diagnosis of a reliable-rounds execution —
// the replacement for opaque deadlock/step-budget sentinels: it says who
// was blocked, on whom, in which round, and how much recovery work the
// links did.
type RunReport struct {
	// Stalls lists every watchdog firing, ordered by (process, round).
	Stalls []msgnet.Stall

	// PerProc holds each process's link statistics.
	PerProc []Stats

	// Retransmissions, GiveUps and DupFramesReceived aggregate PerProc.
	Retransmissions   int
	GiveUps           int
	DupFramesReceived int

	// Steps is the substrate step count; Crashed the crashed processes.
	Steps   int
	Crashed core.Set

	// Errs holds per-process body errors (ErrCrashed for crashed ones).
	Errs map[core.PID]error
}

// Stalled reports whether any round stalled anywhere.
func (r *RunReport) Stalled() bool { return len(r.Stalls) > 0 }

// String renders a multi-line diagnostic summary.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reliablelink: %d steps, %d retransmissions, %d give-ups, %d duplicate frames",
		r.Steps, r.Retransmissions, r.GiveUps, r.DupFramesReceived)
	if r.Crashed.Count() > 0 {
		fmt.Fprintf(&b, ", crashed %s", r.Crashed)
	}
	for _, s := range r.Stalls {
		fmt.Fprintf(&b, "\n  %s", s)
	}
	return b.String()
}

// RunRounds executes msgnet's §2 item 3 round body over reliable links
// on a lossy substrate: every process runs msgnet.RunSubstrateRounds over
// its Link, so lost frames are retransmitted underneath and a round that
// stalls past the watchdog despite retransmission degrades into D(i,r)
// suspicions, never into deadlock. Each process lingers after its last
// round, still serving acknowledgements and retransmissions, so peers can
// finish.
//
// The trace in the outcome is the induced RRFD trace; when no round
// stalled it satisfies eq. (3) (|D(i,r)| ≤ f) exactly as the unreliable
// substrate's protocol does, and predicate checking of the trace is how the
// chaos harness decides which model the faulty execution still realized.
// The RunReport is always non-nil, even alongside an error.
func RunRounds(n, f, rounds int, cfg RoundsConfig, emit msgnet.RoundEmit) (*msgnet.RoundOutcome, *RunReport, error) {
	if err := msgnet.CheckRoundShape(n, f, rounds); err != nil {
		return nil, &RunReport{}, err
	}

	recs := make([]*msgnet.RoundRec, n)
	stalls := make([][]msgnet.Stall, n)
	links := make([]*Link, n)
	out, err := msgnet.Run(n, cfg.Net, func(nd *msgnet.Node) (core.Value, error) {
		l := New(nd, cfg.Link)
		links[nd.Me] = l
		rec, st, err := msgnet.RunSubstrateRounds(l, f, rounds, cfg.watchdog(), cfg.linger(), emit, cfg.Link.Observer)
		recs[nd.Me] = rec
		stalls[nd.Me] = append(stalls[nd.Me], st...) // across incarnations
		return nil, err
	})

	rep := &RunReport{PerProc: make([]Stats, n), Crashed: core.NewSet(n)}
	if out != nil {
		rep.Steps = out.Steps
		rep.Crashed = out.Crashed
		rep.Errs = out.Errs
	}
	for i := 0; i < n; i++ {
		if links[i] != nil {
			st := links[i].Stats()
			rep.PerProc[i] = st
			rep.Retransmissions += st.Retransmissions
			rep.GiveUps += st.GiveUps
			rep.DupFramesReceived += st.DupFramesReceived
		}
		rep.Stalls = append(rep.Stalls, stalls[i]...)
	}

	crashed, steps := core.NewSet(n), 0
	if out != nil {
		crashed, steps = out.Crashed, out.Steps
	}
	return msgnet.AssembleRoundOutcome(n, rounds, recs, crashed, steps), rep, err
}
