package rrfd

import (
	"repro/internal/abd"
	"repro/internal/adversary"
	"repro/internal/immediate"
	"repro/internal/predicate"
	"repro/internal/view"
)

// ---- Full-information views (§1, §2 items 3-4, Cor 4.4 machinery) ----

type (
	// KnowledgeView is a process's full-information state: its input and
	// the recursive views it received, with the local-state chain.
	KnowledgeView = view.View

	// ViewHistory is each process's sequence of end-of-round views.
	ViewHistory = view.History

	// FIFOReception is one simulated reception of the non-round-based
	// system of §2 item 3.
	FIFOReception = view.Reception

	// WriteEmulation reports the §2 item 4 emulated-write analysis.
	WriteEmulation = view.WriteEmulation
)

var (
	// FullInfo is the full-information protocol factory.
	FullInfo = view.FullInfo

	// RunFullInfo runs the full-information protocol and returns final
	// views.
	RunFullInfo = view.Run

	// RunFullInfoHistory also returns the per-round view history.
	RunFullInfoHistory = view.RunHistory

	// ReconstructFIFO recreates the §2 item 3 simulated FIFO receptions
	// from a view history.
	ReconstructFIFO = view.ReconstructFIFO

	// CheckFIFO validates a reconstructed reception log.
	CheckFIFO = view.CheckFIFO

	// EmulateWrite analyses a history for §2 item 4's write-completion
	// structure and verifies the subsequent-round visibility claim.
	EmulateWrite = view.EmulateWrite

	// KnownByAll returns the processes every given view knows.
	KnownByAll = view.KnownByAll
)

// ---- Immediate snapshots (reference [4], the iterated model) ----

type (
	// ImmediateObject is a one-shot immediate snapshot handle.
	ImmediateObject = immediate.Object

	// ImmediateView is a Participate result.
	ImmediateView = immediate.View
)

var (
	// NewImmediate returns a handle to a named one-shot immediate
	// snapshot.
	NewImmediate = immediate.New

	// CheckImmediateViews validates self-inclusion, containment, and
	// immediacy over a set of views.
	CheckImmediateViews = immediate.CheckViews

	// RunImmediateRounds runs the iterated immediate snapshot and
	// returns its RRFD trace.
	RunImmediateRounds = immediate.RunRounds

	// Immediacy is the IIS-specific predicate clause.
	Immediacy = predicate.Immediacy

	// ImmediateSnapshot is the full IIS predicate.
	ImmediateSnapshot = predicate.ImmediateSnapshot

	// OrderedBlocks is the IIS adversary (ordered concurrency blocks).
	OrderedBlocks = adversary.OrderedBlocks
)

// ---- ABD register emulation (reference [22]) ----

type (
	// ABDRegister is a process's handle to the emulated SWMR atomic
	// register over message passing.
	ABDRegister = abd.Register

	// ABDOp is one logged register operation with its logical interval.
	ABDOp = abd.Op

	// ABDOutcome reports an emulation run.
	ABDOutcome = abd.Outcome

	// ABDScript is the per-process workload.
	ABDScript = abd.Script
)

var (
	// RunABD executes a workload over the emulated register (2f < n).
	RunABD = abd.Run

	// CheckAtomic validates an operation log against SWMR atomicity.
	CheckAtomic = abd.CheckAtomic
)
