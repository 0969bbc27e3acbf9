package obs

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/obs/hist"
)

// Metrics is an Observer that aggregates an execution (or many executions)
// into counters and histograms. All methods are safe for concurrent use, so
// one Metrics may observe parallel sweeps; Snapshot can be taken at any
// time.
//
// Alongside the counters, Metrics feeds a hist.Registry of latency and
// size distributions: per-phase and per-round wall time, oracle-plan
// latency, delivery fan-in, and reliable-link backoff intervals. The
// registry is shared with whatever else meters the process (chaos
// campaigns, par pools) via Hist, and is what /metrics and /snapshot
// expose when the Metrics is served by ServeTelemetry.
type Metrics struct {
	mu sync.Mutex

	runs       int64
	runErrors  int64
	rounds     int64
	emits      int64
	delivered  int64
	suspicions int64
	crashes    int64
	decisions  int64

	roundsToDecision   map[int]int64 // decision round → processes deciding there
	dsetSizes          map[int]int64 // |D(i,r)| → occurrences
	suspicionsPerRound map[int]int64 // round → Σ_i |D(i,r)|
	suspectedCounts    map[int]int64 // process → times appearing in any D(i,r)
	phaseNS            map[string]int64
	phaseCount         map[string]int64
	events             map[string]int64
	faults             FaultSnapshot
	recovery           RecoverySnapshot
	mc                 MCSnapshot
	net                NetSnapshot
	serve              ServeSnapshot

	// Histograms record outside the mutex (hist is sharded-atomic); the
	// hot-path ones are resolved to direct pointers at construction.
	hists    *hist.Registry
	hPlan    *hist.Histogram // oracle_plan_ns
	hEmit    *hist.Histogram // phase_emit_ns
	hDeliver *hist.Histogram // phase_deliver_ns
	hRound   *hist.Histogram // round_ns
	hFanin   *hist.Histogram // deliver_fanin
	hBackoff *hist.Histogram // rlink_backoff_steps
}

// FaultSnapshot aggregates injected-fault and link-recovery counters,
// derived from the faultnet.* and rlink.* event streams.
type FaultSnapshot struct {
	// Drops, Omissions and PartitionDrops split lost messages by cause
	// (the "reason" field of faultnet.drop events).
	Drops          int64 `json:"drops"`
	Omissions      int64 `json:"omissions"`
	PartitionDrops int64 `json:"partition_drops"`

	// PartitionSpans counts declared partition windows.
	PartitionSpans int64 `json:"partition_spans"`

	// Duplicates and Delays count injected extra copies and delayed
	// deliveries.
	Duplicates int64 `json:"duplicates"`
	Delays     int64 `json:"delays"`

	// Retransmissions, DupFramesReceived and GiveUps count the reliable
	// link's recovery work.
	Retransmissions   int64 `json:"retransmissions"`
	DupFramesReceived int64 `json:"dup_frames_received"`
	GiveUps           int64 `json:"give_ups"`

	// WatchdogStalls counts rounds abandoned to suspicion by the round
	// watchdog.
	WatchdogStalls int64 `json:"watchdog_stalls"`
}

func (f FaultSnapshot) empty() bool { return f == FaultSnapshot{} }

// RecoverySnapshot aggregates crash-recovery counters, derived from the
// msgnet.restart and recovery.* event streams emitted by the checkpointing
// engine and the crash-and-recover substrate.
type RecoverySnapshot struct {
	// Restarts counts supervised process restarts (msgnet.restart).
	Restarts int64 `json:"restarts"`

	// Recoveries and Rejoins count journal recoveries and recovered
	// processes that completed a round again.
	Recoveries int64 `json:"recoveries"`
	Rejoins    int64 `json:"rejoins"`

	// ReplayedRounds totals journal rounds restored at recovery;
	// LostRecords totals journal records destroyed by crashes.
	ReplayedRounds int64 `json:"replayed_rounds"`
	LostRecords    int64 `json:"lost_records"`

	// Checkpoints, CheckpointBytes and CheckpointNanos count engine
	// snapshots and their cumulative size and latency.
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	CheckpointNanos int64 `json:"checkpoint_ns"`

	// Resumes counts WAL-backed engine resumptions; SnapshotResumes the
	// subset that restored from a snapshot instead of replaying;
	// ResumeReplayedRounds the rounds replayed; TruncatedBytes the torn
	// WAL tail bytes discarded across resumes.
	Resumes              int64 `json:"resumes"`
	SnapshotResumes      int64 `json:"snapshot_resumes"`
	ResumeReplayedRounds int64 `json:"resume_replayed_rounds"`
	TruncatedBytes       int64 `json:"truncated_bytes"`
}

func (r RecoverySnapshot) empty() bool { return r == RecoverySnapshot{} }

// MCSnapshot aggregates model-checking counters, derived from the mc.*
// event stream emitted by internal/mc explorations.
type MCSnapshot struct {
	// Explorations counts completed Explore calls (mc.done events).
	Explorations int64 `json:"explorations"`

	// Schedules counts executed schedules; Sampled the subset completed
	// by the bounded-depth random frontier instead of enumeration.
	Schedules int64 `json:"schedules"`
	Sampled   int64 `json:"sampled"`

	// Pruned counts subtrees cut by state-hash pruning; SymmetrySkips and
	// SleepSkips count options skipped by the two partial-order
	// reductions (totals from mc.done).
	Pruned        int64 `json:"pruned"`
	SymmetrySkips int64 `json:"symmetry_skips"`
	SleepSkips    int64 `json:"sleep_skips"`

	// Violations counts counterexamples found; MaxDepth is the deepest
	// choice-tree node reached by any exploration.
	Violations int64 `json:"violations"`
	MaxDepth   int64 `json:"max_depth"`
}

func (m MCSnapshot) empty() bool { return m == MCSnapshot{} }

// NetSnapshot aggregates network-substrate counters, derived from the
// netsub.* and sockchaos.* event streams of internal/netsub: connection
// lifecycle, redials, backpressure sheds, slow-peer evictions, and the
// socket-level chaos the proxy injected.
type NetSnapshot struct {
	// ConnsOpened and ConnsClosed count connection lifecycle events,
	// outbound (dialed) and inbound (handshaked) alike.
	ConnsOpened int64 `json:"conns_opened"`
	ConnsClosed int64 `json:"conns_closed"`

	// DialFailures and Reconnects count redial work: failed dial
	// attempts and successful re-establishments after a break.
	DialFailures int64 `json:"dial_failures"`
	Reconnects   int64 `json:"reconnects"`

	// Hellos counts accepted inbound handshakes.
	Hellos int64 `json:"hellos"`

	// Backpressure counts sends shed at a full per-peer queue; Evictions
	// counts peers the flow monitor cut off for persistent slowness.
	Backpressure int64 `json:"backpressure"`
	Evictions    int64 `json:"evictions"`

	// FrameErrors counts connections torn down over corrupt or
	// unexpected frames.
	FrameErrors int64 `json:"frame_errors"`

	// SockDrops, SockDelays, SockDuplicates and SockResets count what the
	// socket-level chaos proxy did to data frames.
	SockDrops      int64 `json:"sock_drops"`
	SockDelays     int64 `json:"sock_delays"`
	SockDuplicates int64 `json:"sock_duplicates"`
	SockResets     int64 `json:"sock_resets"`
}

func (n NetSnapshot) empty() bool { return n == NetSnapshot{} }

// ServeSnapshot aggregates agreement-service counters, derived from the
// serve.* event stream of internal/serve: decisions committed, idempotent
// replays, admission-control sheds, deadline abstains, and the
// crash-recovery lifecycle of service nodes.
type ServeSnapshot struct {
	// Decisions counts instance decisions committed (journaled then
	// acked); Adoptions the subset learned from a peer's decide broadcast
	// rather than gathered locally.
	Decisions int64 `json:"decisions"`
	Adoptions int64 `json:"adoptions"`

	// IdempotentReplays counts requests answered from the decided table
	// because their request ID (or instance) had already been settled.
	IdempotentReplays int64 `json:"idempotent_replays"`

	// Sheds counts submissions refused by admission control at a full
	// in-flight table; PeerSheds the subset where the shed proposal
	// arrived from a peer rather than a client.
	Sheds     int64 `json:"sheds"`
	PeerSheds int64 `json:"peer_sheds"`

	// Abstains counts requests that hit their deadline before n-f
	// proposals gathered and were answered StatusAbstain.
	Abstains int64 `json:"abstains"`

	// InstanceEvictions counts undecided instances evicted at their TTL.
	InstanceEvictions int64 `json:"instance_evictions"`

	// Recoveries counts node restarts that replayed a journal;
	// RecoveredDecisions totals the decisions those replays restored.
	Recoveries         int64 `json:"recoveries"`
	RecoveredDecisions int64 `json:"recovered_decisions"`

	// Crashes counts planted chaos crashes fired; BadPeerMsgs counts
	// malformed mesh messages dropped.
	Crashes     int64 `json:"crashes"`
	BadPeerMsgs int64 `json:"bad_peer_msgs"`
}

func (s ServeSnapshot) empty() bool { return s == ServeSnapshot{} }

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.reset()
	return m
}

// Hist returns the registry of latency/size histograms this Metrics
// records into. Callers may register further histograms of their own; the
// registry is what telemetry exporters walk.
func (m *Metrics) Hist() *hist.Registry { return m.hists }

func (m *Metrics) reset() {
	m.runs, m.runErrors, m.rounds = 0, 0, 0
	m.emits, m.delivered, m.suspicions, m.crashes, m.decisions = 0, 0, 0, 0, 0
	m.roundsToDecision = make(map[int]int64)
	m.dsetSizes = make(map[int]int64)
	m.suspicionsPerRound = make(map[int]int64)
	m.suspectedCounts = make(map[int]int64)
	m.phaseNS = make(map[string]int64)
	m.phaseCount = make(map[string]int64)
	m.events = make(map[string]int64)
	m.faults = FaultSnapshot{}
	m.recovery = RecoverySnapshot{}
	m.mc = MCSnapshot{}
	m.net = NetSnapshot{}
	m.serve = ServeSnapshot{}
	// The registry is cleared in place, never replaced: Telemetry handles
	// and pool meters resolved against it stay live across Reset.
	if m.hists == nil {
		m.hists = hist.NewRegistry()
	} else {
		m.hists.Reset()
	}
	m.hPlan = m.hists.Get("oracle_plan_ns")
	m.hEmit = m.hists.Get("phase_emit_ns")
	m.hDeliver = m.hists.Get("phase_deliver_ns")
	m.hRound = m.hists.Get("round_ns")
	m.hFanin = m.hists.Get("deliver_fanin")
	m.hBackoff = m.hists.Get("rlink_backoff_steps")
}

// Reset clears every counter and histogram.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reset()
}

// RunStart implements Observer.
func (m *Metrics) RunStart(n int) {
	m.mu.Lock()
	m.runs++
	m.mu.Unlock()
}

// RoundStart implements Observer.
func (m *Metrics) RoundStart(r, active int) {
	m.mu.Lock()
	m.rounds++
	m.mu.Unlock()
}

// Emit implements Observer.
func (m *Metrics) Emit(r, p int) {
	m.mu.Lock()
	m.emits++
	m.mu.Unlock()
}

// Deliver implements Observer.
func (m *Metrics) Deliver(r, p, delivered, suspected int) {
	m.mu.Lock()
	m.delivered += int64(delivered)
	m.suspicions += int64(suspected)
	m.dsetSizes[suspected]++
	m.suspicionsPerRound[r] += int64(suspected)
	m.mu.Unlock()
	m.hFanin.Record(int64(delivered))
}

// Suspect implements Observer. Cardinality accounting happens in Deliver
// (which carries |D(p,r)| without the slice); Suspect records what only
// the member list can tell: which processes are being suspected, counted
// per target across every (observer, round) pair.
func (m *Metrics) Suspect(r, p int, suspects []int) {
	if len(suspects) == 0 {
		return
	}
	m.mu.Lock()
	for _, q := range suspects {
		m.suspectedCounts[q]++
	}
	m.mu.Unlock()
}

// Crash implements Observer.
func (m *Metrics) Crash(r int, crashed []int) {
	m.mu.Lock()
	m.crashes += int64(len(crashed))
	m.mu.Unlock()
}

// Decide implements Observer.
func (m *Metrics) Decide(r, p int) {
	m.mu.Lock()
	m.decisions++
	m.roundsToDecision[r]++
	m.mu.Unlock()
}

// RunEnd implements Observer.
func (m *Metrics) RunEnd(rounds, decided int, err error) {
	if err == nil {
		return
	}
	m.mu.Lock()
	m.runErrors++
	m.mu.Unlock()
}

// Phase implements Observer. Non-zero durations additionally feed the
// latency histograms (zero means the engine is running untimed — there is
// nothing to record).
func (m *Metrics) Phase(r int, phase string, d time.Duration) {
	m.mu.Lock()
	m.phaseNS[phase] += int64(d)
	m.phaseCount[phase]++
	m.mu.Unlock()
	if d <= 0 {
		return
	}
	switch phase {
	case "plan":
		m.hPlan.Record(int64(d))
	case "emit":
		m.hEmit.Record(int64(d))
	case "deliver":
		m.hDeliver.Record(int64(d))
	case "round":
		m.hRound.Record(int64(d))
	}
}

// NeedsPhaseTimings implements PhaseTimer: the phase histograms are real
// durations.
func (m *Metrics) NeedsPhaseTimings() bool { return true }

// Event implements Observer. Fault-injection and link-recovery events
// additionally feed the FaultSnapshot counters.
func (m *Metrics) Event(kind string, r, p int, fields map[string]any) {
	m.mu.Lock()
	m.events[kind]++
	switch kind {
	case "faultnet.drop":
		switch fields["reason"] {
		case "omission":
			m.faults.Omissions++
		case "partition":
			m.faults.PartitionDrops++
		default:
			m.faults.Drops++
		}
	case "faultnet.dup":
		m.faults.Duplicates++
	case "faultnet.delay":
		m.faults.Delays++
	case "faultnet.partition_span":
		m.faults.PartitionSpans++
	case "rlink.retransmit":
		m.faults.Retransmissions++
		if iv := asInt64(fields["interval"]); iv > 0 {
			m.hBackoff.Record(iv)
		}
	case "rlink.dup_rx":
		m.faults.DupFramesReceived++
	case "rlink.giveup":
		m.faults.GiveUps++
	case "round.watchdog":
		m.faults.WatchdogStalls++
	case "msgnet.restart":
		m.recovery.Restarts++
	case "recovery.recover":
		m.recovery.Recoveries++
		m.recovery.ReplayedRounds += asInt64(fields["replayed_rounds"])
		m.recovery.LostRecords += asInt64(fields["lost_records"])
	case "recovery.rejoin":
		m.recovery.Rejoins++
	case "mc.schedule":
		m.mc.Schedules++
	case "mc.sample":
		m.mc.Sampled++
	case "mc.prune":
		m.mc.Pruned++
	case "mc.violation":
		m.mc.Violations++
	case "mc.done":
		m.mc.Explorations++
		m.mc.SymmetrySkips += asInt64(fields["symmetry_skips"])
		m.mc.SleepSkips += asInt64(fields["sleep_skips"])
		if d := asInt64(fields["max_depth"]); d > m.mc.MaxDepth {
			m.mc.MaxDepth = d
		}
	case "recovery.checkpoint":
		m.recovery.Checkpoints++
		m.recovery.CheckpointBytes += asInt64(fields["bytes"])
		m.recovery.CheckpointNanos += asInt64(fields["nanos"])
	case "recovery.resume":
		m.recovery.Resumes++
		m.recovery.ResumeReplayedRounds += asInt64(fields["replayed_rounds"])
		m.recovery.TruncatedBytes += asInt64(fields["truncated_bytes"])
		if asInt64(fields["from_snapshot"]) > 0 {
			m.recovery.SnapshotResumes++
		}
	case "netsub.conn_open":
		m.net.ConnsOpened++
	case "netsub.conn_close":
		m.net.ConnsClosed++
	case "netsub.dial_fail":
		m.net.DialFailures++
	case "netsub.reconnect":
		m.net.Reconnects++
	case "netsub.hello":
		m.net.Hellos++
	case "netsub.backpressure":
		m.net.Backpressure++
	case "netsub.evict":
		m.net.Evictions++
	case "netsub.frame_error":
		m.net.FrameErrors++
	case "serve.decide":
		m.serve.Decisions++
	case "serve.adopt":
		m.serve.Decisions++
		m.serve.Adoptions++
	case "serve.dup":
		m.serve.IdempotentReplays++
	case "serve.shed":
		m.serve.Sheds++
		if b, ok := fields["peer"].(bool); ok && b {
			m.serve.PeerSheds++
		}
	case "serve.abstain":
		m.serve.Abstains++
	case "serve.evict_instance":
		m.serve.InstanceEvictions++
	case "serve.recover":
		m.serve.Recoveries++
		m.serve.RecoveredDecisions += asInt64(fields["decisions"])
	case "serve.crash":
		m.serve.Crashes++
	case "serve.bad_peer_msg":
		m.serve.BadPeerMsgs++
	case "sockchaos.drop":
		m.net.SockDrops++
	case "sockchaos.delay":
		m.net.SockDelays++
	case "sockchaos.duplicate":
		m.net.SockDuplicates++
	case "sockchaos.reset":
		m.net.SockResets++
	}
	m.mu.Unlock()
}

// asInt64 widens the integer types event fields arrive as.
func asInt64(v any) int64 {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int64:
		return n
	case uint64:
		return int64(n)
	case float64:
		return int64(n)
	}
	return 0
}

var _ Observer = (*Metrics)(nil)

// Snapshot is a point-in-time copy of a Metrics, shaped for JSON.
// Histogram maps are keyed by the integer rendered as a decimal string
// (encoding/json requires string keys).
type Snapshot struct {
	// Runs and RunErrors count engine executions observed and how many
	// ended in error.
	Runs      int64 `json:"runs"`
	RunErrors int64 `json:"run_errors"`

	// Rounds is the total rounds executed across runs.
	Rounds int64 `json:"rounds"`

	// Emits and MessagesDelivered count Emit calls and Σ|S(i,r)|.
	Emits             int64 `json:"emits"`
	MessagesDelivered int64 `json:"messages_delivered"`

	// SuspicionsTotal is Σ_{i,r} |D(i,r)|; Crashes counts real crashes;
	// Decisions counts first decisions.
	SuspicionsTotal int64 `json:"suspicions_total"`
	Crashes         int64 `json:"crashes"`
	Decisions       int64 `json:"decisions"`

	// RoundsToDecision maps decision round → number of processes that
	// first decided in that round.
	RoundsToDecision map[int]int64 `json:"rounds_to_decision"`

	// DSetSizeHist maps |D(i,r)| → number of (process, round) pairs with
	// a suspect set of that size.
	DSetSizeHist map[int]int64 `json:"dset_size_hist"`

	// SuspicionsPerRound maps round → Σ_i |D(i,r)| summed across runs.
	SuspicionsPerRound map[int]int64 `json:"suspicions_per_round"`

	// SuspectedCounts maps process → how many times it appeared in some
	// D(i,r) across runs — who gets suspected, where SuspicionsPerRound
	// only says how much. Omitted when no suspicion named a process.
	SuspectedCounts map[int]int64 `json:"suspected_counts,omitempty"`

	// PhaseNanos and PhaseMeanNanos report total and mean wall time per
	// engine phase ("plan", "emit", "deliver").
	PhaseNanos     map[string]int64   `json:"phase_ns"`
	PhaseMeanNanos map[string]float64 `json:"phase_mean_ns"`

	// OraclePlanMeanNanos is the mean latency of one oracle.Plan call —
	// PhaseMeanNanos["plan"], surfaced because it is the number perf
	// work on adversaries tracks.
	OraclePlanMeanNanos float64 `json:"oracle_plan_mean_ns"`

	// Events counts protocol-level events by kind.
	Events map[string]int64 `json:"events,omitempty"`

	// Faults aggregates injected faults and link recovery work; omitted
	// when no fault or recovery event was observed.
	Faults *FaultSnapshot `json:"faults,omitempty"`

	// Recovery aggregates crash-recovery work (restarts, journal replays,
	// checkpoints, WAL resumes); omitted when none was observed.
	Recovery *RecoverySnapshot `json:"recovery,omitempty"`

	// MC aggregates model-checking explorations (schedules, reductions,
	// violations); omitted when no mc.* event was observed.
	MC *MCSnapshot `json:"mc,omitempty"`

	// Net aggregates network-substrate transport work (connections,
	// redials, backpressure, evictions, socket chaos); omitted when no
	// netsub.* or sockchaos.* event was observed.
	Net *NetSnapshot `json:"net,omitempty"`

	// Serve aggregates agreement-service work (decisions, idempotent
	// replays, sheds, abstains, recoveries); omitted when no serve.*
	// event was observed.
	Serve *ServeSnapshot `json:"serve,omitempty"`

	// Hist carries the frozen latency/size histograms (quantile
	// summaries in JSON); omitted when nothing was recorded.
	Hist map[string]hist.Snap `json:"hist,omitempty"`
}

// Snapshot returns a consistent copy of the current state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Runs:               m.runs,
		RunErrors:          m.runErrors,
		Rounds:             m.rounds,
		Emits:              m.emits,
		MessagesDelivered:  m.delivered,
		SuspicionsTotal:    m.suspicions,
		Crashes:            m.crashes,
		Decisions:          m.decisions,
		RoundsToDecision:   copyIntMap(m.roundsToDecision),
		DSetSizeHist:       copyIntMap(m.dsetSizes),
		SuspicionsPerRound: copyIntMap(m.suspicionsPerRound),
		SuspectedCounts:    copyIntMap(m.suspectedCounts),
		PhaseNanos:         make(map[string]int64, len(m.phaseNS)),
		PhaseMeanNanos:     make(map[string]float64, len(m.phaseNS)),
	}
	for phase, ns := range m.phaseNS {
		s.PhaseNanos[phase] = ns
		if c := m.phaseCount[phase]; c > 0 {
			s.PhaseMeanNanos[phase] = float64(ns) / float64(c)
		}
	}
	s.OraclePlanMeanNanos = s.PhaseMeanNanos["plan"]
	if len(m.events) > 0 {
		s.Events = make(map[string]int64, len(m.events))
		for k, v := range m.events {
			s.Events[k] = v
		}
	}
	if !m.faults.empty() {
		f := m.faults
		s.Faults = &f
	}
	if !m.recovery.empty() {
		r := m.recovery
		s.Recovery = &r
	}
	if !m.mc.empty() {
		mc := m.mc
		s.MC = &mc
	}
	if !m.net.empty() {
		n := m.net
		s.Net = &n
	}
	if !m.serve.empty() {
		sv := m.serve
		s.Serve = &sv
	}
	if hs := m.hists.Snapshot(); len(hs) > 0 {
		s.Hist = hs
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func copyIntMap(src map[int]int64) map[int]int64 {
	dst := make(map[int]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
