package rrfd

import (
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/msgnet"
	"repro/internal/netsub"
)

// ---- Real-network substrate (internal/netsub) ----

type (
	// Substrate is the node-facing surface every message-passing
	// substrate implements — the virtual-clock scheduler with steps, the
	// TCP mesh with milliseconds. Protocol bodies written against it run
	// unchanged on either.
	Substrate = msgnet.Substrate

	// RoundEmit produces one process's round-r payload from what it
	// heard (and suspected) in round r−1.
	RoundEmit = msgnet.RoundEmit

	// RoundOutcome reports a round-protocol run on any substrate — the
	// message-passing, reliable-link, TCP, snapshot and immediate-snapshot
	// runners all return it: the induced trace, per-round views, crashed
	// processes and operation count.
	RoundOutcome = msgnet.RoundOutcome

	// TCPNode is one process's endpoint in a real-socket mesh.
	TCPNode = netsub.Node

	// TCPConfig shapes one TCP node: peer addresses, queue bounds,
	// heartbeat cadence, redial backoff, flow-monitor eviction.
	TCPConfig = netsub.Config

	// TCPStats counts one node's transport work.
	TCPStats = netsub.Stats

	// TCPRoundsConfig tunes a round-protocol execution over TCP.
	TCPRoundsConfig = netsub.RoundsConfig

	// TCPRunReport diagnoses a networked execution: stalls, sheds,
	// reconnects, evictions.
	TCPRunReport = netsub.RunReport

	// RoundStall records one watchdog firing: who gave up which round,
	// missing whom.
	RoundStall = msgnet.Stall

	// BackoffPolicy is the capped-exponential retry ladder shared by the
	// reliable link's retransmits and the TCP mesh's redials.
	BackoffPolicy = backoff.Policy

	// SockChaosConfig tunes the socket-level chaos proxy.
	SockChaosConfig = netsub.ChaosConfig

	// NetChaosConfig tunes the networked leg of a chaos cross-validation.
	NetChaosConfig = chaos.NetConfig

	// CrossVerdict compares one fault plan's safety verdict across the
	// virtual and TCP substrates.
	CrossVerdict = chaos.CrossVerdict
)

// Transport error values; the structured forms live in internal/netsub.
var (
	// ErrBackpressure reports a send shed at a full per-peer queue.
	ErrBackpressure = netsub.ErrBackpressure

	// ErrPeerEvicted reports a send to a peer the flow monitor cut off.
	ErrPeerEvicted = netsub.ErrEvicted
)

var (
	// StartTCPNode brings one mesh endpoint up.
	StartTCPNode = netsub.Start

	// RunTCPRounds is the in-process harness: n loopback nodes running
	// the §2 item 3 round protocol with a wall-clock watchdog.
	RunTCPRounds = netsub.RunRounds

	// RunSubstrateRounds is the one round-protocol body — broadcast,
	// collect n−f, buffer early rounds, watchdog stragglers into D(i,r),
	// linger — run by one process against any Substrate.
	RunSubstrateRounds = msgnet.RunSubstrateRounds

	// WrapChaosListener interposes the socket-level fault injector on
	// every connection accepted by a listener.
	WrapChaosListener = netsub.WrapListener

	// WrapChaosListeners binds n loopback listeners, all chaos-wrapped
	// under one fault plan.
	WrapChaosListeners = netsub.WrapAll

	// ChaosExecuteNet runs one k-set-agreement execution over real TCP
	// under a fault plan — the networked twin of a chaos campaign run.
	ChaosExecuteNet = chaos.ExecuteNet

	// ChaosCrossValidate runs the same fault plan through the virtual
	// injector and the socket proxy and compares the safety verdicts.
	ChaosCrossValidate = chaos.CrossValidate

	// SplitBrainPlan is the deterministic cross-validation scenario: a
	// never-healing three-way partition.
	SplitBrainPlan = chaos.SplitBrainPlan
)
