package msgnet

import "repro/internal/core"

// Substrate is the node-facing surface of a message-passing substrate:
// everything a protocol body needs, and nothing about how the messages
// actually move. The virtual-clock scheduler of this package implements
// it with steps; internal/netsub implements it with length-prefixed
// frames over real net.Conn and a millisecond clock. Protocol bodies
// written against Substrate run unchanged on either.
//
// Clock semantics are substrate-relative: Clock returns ticks (scheduler
// steps here, milliseconds since node start on the network), and the
// deadline passed to RecvTimeout is an absolute tick on the same clock.
// What a body may assume is only monotonicity — which is exactly what a
// round watchdog needs to degrade a stalled round into D(i,r) suspicions
// on either substrate.
type Substrate interface {
	// PID is this process's identity.
	PID() core.PID

	// Size is the number of processes.
	Size() int

	// Clock is the substrate's monotonic tick counter.
	Clock() int

	// Send queues a message to process to.
	Send(to core.PID, payload core.Value) error

	// Broadcast sends payload to every process including the sender.
	Broadcast(payload core.Value) error

	// Recv blocks until some message addressed to the caller arrives.
	Recv() (Envelope, error)

	// RecvTimeout is Recv bounded by an absolute tick deadline: it
	// returns a message and true, or false once the clock passes the
	// deadline with nothing delivered.
	RecvTimeout(deadline int) (Envelope, bool, error)
}

// PID implements Substrate (the Me field remains the idiomatic accessor
// for code that knows it has a *Node).
func (nd *Node) PID() core.PID { return nd.Me }

// Size implements Substrate.
func (nd *Node) Size() int { return nd.N }

var _ Substrate = (*Node)(nil)
