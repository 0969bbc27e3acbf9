// Package reliablelink recovers reliable, exactly-once message delivery on
// top of the lossy msgnet substrate: every data frame carries a per-link
// sequence number, receivers acknowledge and deduplicate, and senders
// retransmit unacknowledged frames with capped exponential backoff driven by
// the scheduler's step clock (no wall time anywhere).
//
// A Link is itself a msgnet.Substrate, so RunRounds runs msgnet's §2
// item 3 round body over it with a watchdog: a round that stalls despite
// retransmission — because a sender crashed, omitted, or sits behind an
// unhealed partition — degrades gracefully into RRFD suspicions (the
// missing senders become D(i,r) entries) instead of deadlocking the
// execution, and the RunReport records who stalled, on whom, and in which
// round.
package reliablelink

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// Config tunes one process's reliable link.
type Config struct {
	// RetransmitAfter is the step interval before the first retransmission
	// of an unacknowledged frame; 0 means 8. Each further retransmission
	// doubles the interval up to RetransmitCap.
	RetransmitAfter int

	// RetransmitCap bounds the backoff interval; 0 means 128.
	RetransmitCap int

	// MaxAttempts bounds retransmissions per frame: once a frame has been
	// retransmitted MaxAttempts times without an acknowledgement, the
	// sender gives it up for lost ("rlink.giveup") and stops spending
	// steps on it. 0 means 25. Any negative value means unlimited — the
	// sender retransmits forever and the give-up path never fires, so an
	// unreachable receiver is then handled only by the round watchdog
	// above the link. A given-up frame is NOT redelivered later: if the
	// receiver needed it, the round stalls and degrades into a D(i,r)
	// suspicion (see RunRounds), never into a deadlock.
	MaxAttempts int

	// Observer, when non-nil, receives "rlink.retransmit", "rlink.giveup"
	// and "rlink.dup_rx" events, and — from the round body RunRounds runs
	// over the link — "round.watchdog" events.
	Observer obs.Observer
}

func (c Config) retransmitAfter() int {
	if c.RetransmitAfter <= 0 {
		return 8
	}
	return c.RetransmitAfter
}

func (c Config) retransmitCap() int {
	if c.RetransmitCap <= 0 {
		return 128
	}
	return c.RetransmitCap
}

func (c Config) maxAttempts() int {
	switch {
	case c.MaxAttempts == 0:
		return 25
	case c.MaxAttempts < 0:
		return int(^uint(0) >> 1)
	default:
		return c.MaxAttempts
	}
}

// Stats counts one link's recovery work.
type Stats struct {
	// Sent counts first transmissions of data frames.
	Sent int

	// Retransmissions counts repeated transmissions of unacked frames.
	Retransmissions int

	// GiveUps counts frames abandoned after MaxAttempts retransmissions.
	GiveUps int

	// AcksReceived counts acknowledgement frames consumed.
	AcksReceived int

	// DupFramesReceived counts data frames suppressed as duplicates.
	DupFramesReceived int
}

// frame is the wire format: a data frame (Ack false) carries the
// application payload under a per-link sequence number; an ack frame echoes
// the sequence number back.
type frame struct {
	Seq int
	Ack bool
	App core.Value
}

type ackKey struct {
	to  core.PID
	seq int
}

type pendingFrame struct {
	payload  core.Value
	nextAt   int // step of the next retransmission
	wait     int // the interval that expires at nextAt
	seq      *backoff.Seq
	attempts int
}

// Link is one process's reliable endpoint, and a msgnet.Substrate. It is
// not safe for concurrent use; like Node, it belongs to the single
// goroutine running the process.
type Link struct {
	nd      *msgnet.Node
	cfg     Config
	nextSeq map[core.PID]int
	unacked map[ackKey]*pendingFrame
	order   []ackKey // insertion order of unacked, for deterministic scans
	seen    map[core.PID]map[int]bool
	stats   Stats
}

// New wraps a msgnet node in a reliable link.
func New(nd *msgnet.Node, cfg Config) *Link {
	return &Link{
		nd:      nd,
		cfg:     cfg,
		nextSeq: make(map[core.PID]int),
		unacked: make(map[ackKey]*pendingFrame),
		seen:    make(map[core.PID]map[int]bool),
	}
}

var _ msgnet.Substrate = (*Link)(nil)

// PID implements msgnet.Substrate.
func (l *Link) PID() core.PID { return l.nd.Me }

// Size implements msgnet.Substrate.
func (l *Link) Size() int { return l.nd.N }

// Clock implements msgnet.Substrate: the underlying scheduler's step
// clock.
func (l *Link) Clock() int { return l.nd.Clock() }

// Stats returns the link's recovery counters so far.
func (l *Link) Stats() Stats { return l.stats }

// Send transmits payload to process to, tracked for retransmission until
// acknowledged. The loopback link is reliable by construction, so self
// sends are not tracked.
func (l *Link) Send(to core.PID, payload core.Value) error {
	seq := l.nextSeq[to]
	l.nextSeq[to]++
	if err := l.nd.Send(to, frame{Seq: seq, App: payload}); err != nil {
		return err
	}
	l.stats.Sent++
	if to == l.nd.Me {
		return nil
	}
	bo := backoff.Policy{Initial: l.cfg.retransmitAfter(), Cap: l.cfg.retransmitCap()}.Sequence()
	wait := bo.Next()
	l.unacked[ackKey{to, seq}] = &pendingFrame{payload: payload, nextAt: l.nd.Clock() + wait, wait: wait, seq: bo}
	l.order = append(l.order, ackKey{to, seq})
	return nil
}

// Broadcast sends payload reliably to every process including the sender.
func (l *Link) Broadcast(payload core.Value) error {
	for i := 0; i < l.nd.N; i++ {
		if err := l.Send(core.PID(i), payload); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks until the next fresh application message arrives, serving
// retransmissions while it waits.
func (l *Link) Recv() (msgnet.Envelope, error) {
	env, _, err := l.recv(0, false)
	return env, err
}

// RecvTimeout returns the next fresh application message, or false once
// the step clock reaches the absolute deadline with nothing fresh
// delivered. Acks, duplicates, and due retransmissions are handled
// internally.
func (l *Link) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	return l.recv(deadline, true)
}

// recv implements Recv (bounded false) and RecvTimeout.
func (l *Link) recv(deadline int, bounded bool) (msgnet.Envelope, bool, error) {
	for {
		if err := l.retransmitDue(); err != nil {
			return msgnet.Envelope{}, false, err
		}
		wake, timed := deadline, bounded
		if t, exists := l.nextTimer(); exists && (!timed || t < wake) {
			wake, timed = t, true
		}
		var (
			env msgnet.Envelope
			got = true
			err error
		)
		if timed {
			env, got, err = l.nd.RecvTimeout(wake)
		} else {
			env, err = l.nd.Recv()
		}
		if err != nil {
			return msgnet.Envelope{}, false, err
		}
		if !got {
			if bounded && l.nd.Clock() >= deadline {
				return msgnet.Envelope{}, false, nil
			}
			continue // a retransmission timer fired first
		}
		f, isFrame := env.Payload.(frame)
		if !isFrame {
			return msgnet.Envelope{}, false, fmt.Errorf("reliablelink: foreign payload %T", env.Payload)
		}
		if f.Ack {
			delete(l.unacked, ackKey{env.From, f.Seq})
			l.stats.AcksReceived++
			continue
		}
		if env.From != l.nd.Me {
			// Always re-ack: the previous ack may have been lost.
			if err := l.nd.Send(env.From, frame{Seq: f.Seq, Ack: true}); err != nil {
				return msgnet.Envelope{}, false, err
			}
		}
		if l.seen[env.From][f.Seq] {
			l.stats.DupFramesReceived++
			l.event("rlink.dup_rx", map[string]any{"from": int(env.From), "seq": f.Seq})
			continue
		}
		if l.seen[env.From] == nil {
			l.seen[env.From] = make(map[int]bool)
		}
		l.seen[env.From][f.Seq] = true
		return msgnet.Envelope{From: env.From, To: env.To, Payload: f.App}, true, nil
	}
}

// Unacked returns the number of frames still awaiting acknowledgement.
func (l *Link) Unacked() int { return len(l.unacked) }

// retransmitDue retransmits every unacked frame whose timer expired,
// walking frames in insertion order for determinism.
func (l *Link) retransmitDue() error {
	if len(l.unacked) == 0 {
		l.order = l.order[:0]
		return nil
	}
	now := l.nd.Clock()
	kept := l.order[:0]
	for _, k := range l.order {
		pf := l.unacked[k]
		if pf == nil {
			continue // acked; compact out of the scan order
		}
		kept = append(kept, k)
		if pf.nextAt > now {
			continue
		}
		if pf.attempts >= l.cfg.maxAttempts() {
			delete(l.unacked, k)
			kept = kept[:len(kept)-1]
			l.stats.GiveUps++
			l.event("rlink.giveup", map[string]any{"to": int(k.to), "seq": k.seq, "attempts": pf.attempts})
			continue
		}
		if err := l.nd.Send(k.to, frame{Seq: k.seq, App: pf.payload}); err != nil {
			return err
		}
		pf.attempts++
		l.stats.Retransmissions++
		// The reported interval is the backoff that just expired — a
		// deterministic step count from the shared capped-exponential
		// ladder, so observers can histogram it.
		l.event("rlink.retransmit", map[string]any{"to": int(k.to), "seq": k.seq, "attempt": pf.attempts, "interval": pf.wait})
		pf.wait = pf.seq.Next()
		pf.nextAt = l.nd.Clock() + pf.wait
	}
	l.order = kept
	return nil
}

// nextTimer returns the earliest pending retransmission step.
func (l *Link) nextTimer() (int, bool) {
	best, found := 0, false
	for _, pf := range l.unacked {
		if !found || pf.nextAt < best {
			best, found = pf.nextAt, true
		}
	}
	return best, found
}

func (l *Link) event(kind string, fields map[string]any) {
	if l.cfg.Observer != nil {
		l.cfg.Observer.Event(kind, -1, int(l.nd.Me), fields)
	}
}
