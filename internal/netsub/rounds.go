package netsub

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// RoundsConfig tunes a round-protocol execution over the network
// substrate (the in-process RunRounds harness and, field by field, the
// multi-process rrfdsim mode).
type RoundsConfig struct {
	// Node is the per-node Config template; Me, N, Addrs and Listener are
	// filled in per process. Its Observer and Hist are shared by all
	// nodes, which the obs layer supports.
	Node Config

	// Listeners, when non-nil, are the n pre-bound listeners to adopt —
	// the hook the socket chaos shim uses to interpose on every
	// connection. nil means bind n fresh loopback listeners.
	Listeners []net.Listener

	// Watchdog is how long a process waits within one round before it
	// gives the round up and records every still-missing sender as
	// suspected for the round (the D(i,r) entries) — the wall-clock
	// analogue of reliablelink's WatchdogSteps. 0 means 2s.
	Watchdog time.Duration

	// Linger is how long a finished process keeps its node up so slower
	// peers can still hear its last round. 0 means 200ms.
	Linger time.Duration
}

func (c RoundsConfig) watchdog() time.Duration {
	if c.Watchdog <= 0 {
		return 2 * time.Second
	}
	return c.Watchdog
}

func (c RoundsConfig) linger() time.Duration {
	if c.Linger <= 0 {
		return 200 * time.Millisecond
	}
	return c.Linger
}

// RunReport is the structured diagnosis of a networked execution,
// mirroring reliablelink.RunReport so chaos verdicts and diagnostics
// stay comparable across substrates: who stalled, on whom, in which
// round, and how much transport work the pool did.
type RunReport struct {
	// Stalls lists every watchdog firing, ordered by (process, round).
	// The Step field of each stall is a millisecond tick of that node's
	// clock, not a scheduler step.
	Stalls []msgnet.Stall

	// PerProc holds each node's transport statistics.
	PerProc []Stats

	// Sheds, Reconnects and Evictions aggregate PerProc.
	Sheds, Reconnects, Evictions int64

	// Millis is the slowest node's clock at the end of the run — the
	// wall-clock analogue of the scheduler step count.
	Millis int

	// Errs holds per-process body errors.
	Errs map[core.PID]error
}

// Stalled reports whether any round stalled anywhere.
func (r *RunReport) Stalled() bool { return len(r.Stalls) > 0 }

// String renders a multi-line diagnostic summary.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netsub: %dms, %d sheds, %d reconnects, %d evictions",
		r.Millis, r.Sheds, r.Reconnects, r.Evictions)
	for _, s := range r.Stalls {
		fmt.Fprintf(&b, "\n  %s", s)
	}
	return b.String()
}

// RunRounds is the in-process harness: it brings up n loopback nodes
// (or adopts cfg.Listeners, typically chaos-wrapped), runs msgnet's round
// body, msgnet.RunSubstrateRounds, on each in its own goroutine with the
// wall-clock watchdog, and assembles the same RoundOutcome the virtual
// substrates produce — so predicate checking and the chaos verdicts run
// unchanged on real sockets. When processes fail, the returned error
// names the lowest failing pid. The RunReport is always non-nil, even
// alongside an error.
func RunRounds(n, f, rounds int, cfg RoundsConfig, emit msgnet.RoundEmit) (*msgnet.RoundOutcome, *RunReport, error) {
	if err := msgnet.CheckRoundShape(n, f, rounds); err != nil {
		return nil, &RunReport{}, err
	}
	rep := &RunReport{PerProc: make([]Stats, n), Errs: make(map[core.PID]error)}

	lns := cfg.Listeners
	if lns == nil {
		lns = make([]net.Listener, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, rep, fmt.Errorf("netsub: bind: %w", err)
			}
			lns[i] = ln
		}
	} else if len(lns) != n {
		return nil, rep, fmt.Errorf("netsub: %d listeners for %d processes", len(lns), n)
	}
	addrs := make([]string, n)
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nc := cfg.Node
		nc.Me, nc.N, nc.Addrs, nc.Listener = core.PID(i), n, addrs, lns[i]
		nd, err := Start(nc)
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Close()
			}
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return nil, rep, err
		}
		nodes[i] = nd
	}

	watchdogTicks := int(cfg.watchdog() / time.Millisecond)
	lingerTicks := int(cfg.linger() / time.Millisecond)
	recs := make([]*msgnet.RoundRec, n)
	stalls := make([][]msgnet.Stall, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, st, err := msgnet.RunSubstrateRounds(nodes[i], f, rounds, watchdogTicks, lingerTicks, emit, cfg.Node.Observer)
			recs[i], stalls[i] = rec, st
			if err != nil {
				mu.Lock()
				rep.Errs[core.PID(i)] = err
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	for i, nd := range nodes {
		if ms := nd.Clock(); ms > rep.Millis {
			rep.Millis = ms
		}
		rep.PerProc[i] = nd.Stats()
		nd.Close()
	}
	for i := 0; i < n; i++ {
		rep.Sheds += rep.PerProc[i].Sheds
		rep.Reconnects += rep.PerProc[i].Reconnects
		rep.Evictions += rep.PerProc[i].Evictions
		rep.Stalls = append(rep.Stalls, stalls[i]...)
	}
	sort.Slice(rep.Stalls, func(a, b int) bool {
		if rep.Stalls[a].P != rep.Stalls[b].P {
			return rep.Stalls[a].P < rep.Stalls[b].P
		}
		return rep.Stalls[a].Round < rep.Stalls[b].Round
	})
	if len(rep.Errs) == 0 {
		rep.Errs = nil
	}

	var err error
	for p := core.PID(0); int(p) < n && err == nil; p++ {
		if e := rep.Errs[p]; e != nil {
			err = fmt.Errorf("netsub: p%d: %w", p, e)
		}
	}
	return msgnet.AssembleRoundOutcome(n, rounds, recs, core.NewSet(n), rep.Millis), rep, err
}
