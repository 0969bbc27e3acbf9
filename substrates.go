package rrfd

import (
	"repro/internal/adoptcommit"
	"repro/internal/detector"
	"repro/internal/msgnet"
	"repro/internal/semisync"
	"repro/internal/simulate"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

// ---- SWMR shared memory (§2 item 4 substrate) ----

type (
	// SharedProc is one process's handle to the shared memory.
	SharedProc = swmr.Proc

	// SharedConfig tunes a shared-memory execution (scheduler, crashes,
	// step budget).
	SharedConfig = swmr.Config

	// SharedOutcome reports a shared-memory execution.
	SharedOutcome = swmr.Outcome

	// SharedChooser is the shared-memory scheduling adversary.
	SharedChooser = swmr.Chooser
)

var (
	// RunShared executes a protocol body at every process over
	// linearizable SWMR registers under a controlled scheduler.
	RunShared = swmr.Run

	// Explore model-checks a shared-memory system over every schedule.
	Explore = swmr.Explore

	// SeededChooser is a deterministic pseudo-random scheduler.
	SeededChooser = swmr.Seeded

	// RoundRobinChooser is the fair cyclic scheduler.
	RoundRobinChooser = swmr.RoundRobin

	// PriorityGroups schedules earlier groups to completion first.
	PriorityGroups = swmr.PriorityGroups

	// ErrCrashed reports an operation by a crashed process.
	ErrCrashed = swmr.ErrCrashed

	// Bottom is the initial register value (⊥).
	Bottom = swmr.Bottom
)

// ---- Atomic snapshots (§2 item 5 substrate) ----

type (
	// Snapshot is a process's handle to a wait-free atomic snapshot
	// object.
	Snapshot = snapshot.Object

	// SnapshotCell is one component of the object.
	SnapshotCell = snapshot.Cell
)

var (
	// NewSnapshot returns a handle to a named snapshot object.
	NewSnapshot = snapshot.New

	// RunSnapshotRounds runs the §2 item 5 iterated snapshot protocol
	// and returns its RRFD trace.
	RunSnapshotRounds = snapshot.RunRounds
)

// ---- Adopt-commit (§4.2) ----

type (
	// AdoptCommitOutcome is a process's graded output.
	AdoptCommitOutcome = adoptcommit.Outcome

	// AdoptCommitGrade is Adopt or Commit.
	AdoptCommitGrade = adoptcommit.Grade
)

// Adopt-commit grades.
const (
	Adopt  = adoptcommit.Adopt
	Commit = adoptcommit.Commit
)

// AdoptCommit runs the wait-free §4.2 protocol instance name with proposal
// v for process p.
var AdoptCommit = adoptcommit.Run

// ---- Asynchronous message passing (§2 item 3 substrate) ----

type (
	// NetNode is one process's handle to the network.
	NetNode = msgnet.Node

	// NetConfig tunes a network execution.
	NetConfig = msgnet.Config

	// NetOutcome reports a network execution.
	NetOutcome = msgnet.Outcome

	// NetEnvelope is a delivered message.
	NetEnvelope = msgnet.Envelope
)

var (
	// RunNetwork executes a protocol body at every process over the
	// asynchronous network under a controlled delivery adversary.
	RunNetwork = msgnet.Run

	// RunNetworkRounds runs the §2 item 3 round-enforced protocol
	// (buffer early, discard late, wait for n−f) and returns its RRFD
	// trace.
	RunNetworkRounds = msgnet.RunRounds

	// NetSeeded is a deterministic pseudo-random network adversary.
	NetSeeded = msgnet.Seeded
)

// ---- Semi-synchronous DDS model (§5) ----

type (
	// SemiConfig tunes a semi-synchronous execution.
	SemiConfig = semisync.Config

	// SemiOutcome reports a semi-synchronous execution.
	SemiOutcome = semisync.Outcome

	// SemiStepper is one DDS process driven by atomic steps.
	SemiStepper = semisync.Stepper

	// TwoStepOutcome reports a two-step protocol execution.
	TwoStepOutcome = semisync.TwoStepOutcome
)

var (
	// RunSemiSync executes steppers in the DDS model.
	RunSemiSync = semisync.Run

	// RunTwoStep runs §5's 2-step-per-round eq. (5) protocol (consensus
	// decided after 2 steps) and returns its RRFD trace.
	RunTwoStep = semisync.RunTwoStep

	// TwoStepFactory builds the 2-step protocol processes.
	TwoStepFactory = semisync.TwoStepFactory

	// RelayFactory builds the 2n-step baseline processes.
	RelayFactory = semisync.RelayFactory

	// SemiSeeded is a deterministic pseudo-random step adversary.
	SemiSeeded = semisync.Seeded

	// SemiRoundRobin is the fair cyclic step scheduler.
	SemiRoundRobin = semisync.RoundRobin
)

// ---- Simulations (§4, §2 constructions) ----

type (
	// CrashSyncResult reports a Theorem 4.3 simulation.
	CrashSyncResult = simulate.CrashSyncResult
)

var (
	// TwoRoundsToSharedMemory derives a shared-memory execution from two
	// rounds of the eq. (3) system (§2 item 4, 2f < n).
	TwoRoundsToSharedMemory = simulate.TwoRoundsToSharedMemory

	// BToA derives an eq. (3) execution from two rounds of the B system.
	BToA = simulate.BToA

	// OmissionPrefix is Theorem 4.1: the first ⌊f/k⌋ snapshot rounds as
	// a synchronous send-omission execution.
	OmissionPrefix = simulate.OmissionPrefix

	// CrashSync is Theorem 4.3: synchronous crash rounds simulated on
	// asynchronous shared memory via adopt-commit.
	CrashSync = simulate.CrashSync
)

// ---- Classical failure detectors (§2 item 6) ----

type (
	// DetectorHistory is a classical failure-detector history.
	DetectorHistory = detector.History
)

var (
	// DetectorFromTrace reads an RRFD execution as a classical history.
	DetectorFromTrace = detector.FromTrace

	// DetectorOracle adapts a classical S history into an RRFD
	// adversary.
	DetectorOracle = detector.Oracle
)
