// Package chaos is the randomized robustness harness: it runs many seeded
// executions of the asynchronous k-set-agreement protocol over reliable
// links on a faulty substrate — each execution under a freshly randomized
// faultnet.Plan plus random crash failures — and checks the safety
// invariants that must survive any message-level mischief: validity,
// k-agreement, and (for stall-free executions) conformance of the induced
// RRFD trace to the eq. (3) asynchronous-model predicate.
//
// Every execution is reproducible from (Config.Seed, run index): on a
// violation the harness prints the scheduler seed, the fault plan, and the
// crash pattern, then delta-debugs the plan down to a minimal component list
// that still reproduces the failure.
package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/predicate"
	"repro/internal/reliablelink"
)

// Config shapes a chaos campaign. The zero value is usable: 100 runs of
// 6-process, 2-resilient, 3-set agreement under 30% drop with delays and
// duplicates.
type Config struct {
	// N, F, K shape the agreement instance; 0 means 6, 2, 3. K is clamped
	// to at least F+1 (one-round min-of-quorum decides among ≤ F+1 values).
	N, F, K int

	// Rounds is the round-protocol length; 0 means 2. Decisions are taken
	// from the round-1 view; later rounds exercise the links further.
	Rounds int

	// Runs is how many randomized executions to perform; 0 means 100.
	Runs int

	// Seed makes the whole campaign deterministic; 0 means 1.
	Seed int64

	// DropRate, DupRate and DelayRate bound the per-message fault
	// probabilities randomized per run (each run draws an actual rate
	// uniformly below the bound). All zero means DropRate 0.3.
	DropRate, DupRate, DelayRate float64

	// MaxDelay bounds the injected delivery delay in steps; 0 means 16.
	MaxDelay int

	// OmitRate bounds send-omission probability for up to F faulty
	// senders; 0 disables omission components.
	OmitRate float64

	// PartitionRate is the per-run probability of a healing partition that
	// isolates up to F processes for a bounded window; 0 disables.
	PartitionRate float64

	// MaxCrashes bounds the crash failures injected per run; clamped to F.
	MaxCrashes int

	// WatchdogSteps and LingerSteps tune the reliable round protocol;
	// 0 means 1200 and 400.
	WatchdogSteps, LingerSteps int

	// MaxSteps bounds each execution's scheduler steps; 0 means 1<<18.
	MaxSteps int

	// FixedPlan, when non-nil, replaces the per-run randomized fault plan:
	// every run injects exactly this plan, while scheduler seeds and crash
	// draws still vary per run. Compiled model plans (hoalg.CompilePlan)
	// use this to pin a campaign to one fault scenario.
	FixedPlan *faultnet.Plan

	// TracePred, when non-nil, replaces the default eq. (3) conformance
	// check with a compiled model predicate, applied to every completed
	// execution's trace — stalled or not, since a model plan's forced
	// omissions make watchdog suspicions part of the modelled behaviour
	// rather than recovery noise.
	TracePred *predicate.P

	// SyncRounds makes the round protocol wait for every process instead
	// of advancing at the first n−F arrivals, so the only suspicions are
	// watchdog timeouts on processes whose messages genuinely never came.
	// Without it, which process a round misses is scheduler arrival order
	// — eq. (3) slack that even a fault-free run exhibits. Model campaigns
	// (FixedPlan from hoalg.CompilePlan) set it so the induced suspicions
	// are exactly D(i,r) = omitting senders ∖ {i}, the synchronous reading
	// the plan compiler promises; the decision quorum stays at n−F.
	SyncRounds bool

	// QuorumBug deliberately breaks the decision rule — processes decide
	// on sub-quorum views — so the harness can demonstrate that it catches
	// an agreement bug. Never set outside tests and demos.
	QuorumBug bool

	// Workers bounds how many runs execute concurrently; 0 means one per
	// logical CPU, 1 forces the sequential loop. Whatever the count, the
	// summary and the Out stream are byte-identical to a sequential
	// campaign: per-run seeds are pre-drawn in run order and results are
	// aggregated in run order. Campaigns with an Observer run at
	// Workers=1 regardless, so the observed event stream stays a
	// deterministic function of the seed.
	Workers int

	// Observer, when non-nil, receives every substrate, fault and link
	// event of the main executions (minimization replays are unobserved).
	Observer obs.Observer

	// Telemetry, when non-nil, receives the campaign's per-run wall-time
	// distribution ("chaos_run_wall_ns"). Unlike Observer it never forces
	// Workers=1: histogram recording is sharded-atomic and order-free, and
	// wall time flows only into histograms, never into the event stream or
	// the summary, so the byte-determinism contract is untouched.
	Telemetry *hist.Registry

	// Out, when non-nil, receives progress and failure reports.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 6
	}
	if c.F <= 0 && c.N >= 3 {
		c.F = 2
	}
	if c.F >= c.N {
		c.F = c.N - 1
	}
	if c.K <= c.F {
		c.K = c.F + 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DropRate == 0 && c.DupRate == 0 && c.DelayRate == 0 && c.OmitRate == 0 && c.PartitionRate == 0 {
		c.DropRate = 0.3
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 16
	}
	if c.MaxCrashes > c.F {
		c.MaxCrashes = c.F
	}
	if c.WatchdogSteps <= 0 {
		c.WatchdogSteps = 1200
	}
	if c.LingerSteps <= 0 {
		c.LingerSteps = 400
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1 << 18
	}
	return c
}

// Violation is one safety-invariant breach, with everything needed to
// replay it: the scheduler seed, the full fault plan, the crash pattern,
// and the delta-debugged minimal plan.
type Violation struct {
	Run       int
	SchedSeed int64
	Plan      faultnet.Plan
	MinPlan   faultnet.Plan
	Crashes   map[core.PID]int
	Kind      string // "validity" | "k-agreement" | "predicate" | "run-error"
	Detail    string
}

// String renders the violation with its replay recipe.
func (v Violation) String() string {
	return fmt.Sprintf("run %d: %s violation: %s\n  replay: sched-seed=%d crashes=%s plan: %s\n  minimized: %s",
		v.Run, v.Kind, v.Detail, v.SchedSeed, crashString(v.Crashes), v.Plan, v.MinPlan)
}

// Summary aggregates a campaign.
type Summary struct {
	Runs       int
	Violations []Violation

	// Decided and Undecided count processes across all runs: Undecided
	// covers crash casualties and sub-quorum abstentions (a liveness cost,
	// never a safety breach).
	Decided, Undecided int

	// Stalls, Retransmissions and GiveUps aggregate link recovery work.
	Stalls, Retransmissions, GiveUps int

	// Steps totals scheduler steps across runs.
	Steps int
}

// Ok reports whether no safety invariant was violated.
func (s *Summary) Ok() bool { return len(s.Violations) == 0 }

// String renders the campaign result.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d runs, %d violations, %d decided, %d undecided, %d stalls, %d retransmissions, %d give-ups, %d steps",
		s.Runs, len(s.Violations), s.Decided, s.Undecided, s.Stalls, s.Retransmissions, s.GiveUps, s.Steps)
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "\n%s", v)
	}
	return b.String()
}

// RandomPlan draws a fault plan below the config's rate bounds, fully
// determined by seed.
func RandomPlan(cfg Config, seed int64) faultnet.Plan {
	cfg = cfg.withDefaults()
	r := faultnet.NewRNG(seed ^ 0x5ca1ab1e)
	p := faultnet.Plan{Seed: seed}
	if cfg.DropRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Drop, Rate: cfg.DropRate * r.Float(),
		})
	}
	if cfg.DupRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Duplicate, Rate: cfg.DupRate * r.Float(), Copies: 1 + r.Intn(2),
		})
	}
	if cfg.DelayRate > 0 {
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.Delay, Rate: cfg.DelayRate * r.Float(), MaxDelay: 1 + r.Intn(cfg.MaxDelay),
		})
	}
	if cfg.OmitRate > 0 && cfg.F > 0 {
		count := 1 + r.Intn(cfg.F)
		p.Components = append(p.Components, faultnet.Component{
			Kind: faultnet.SendOmission, Rate: cfg.OmitRate * r.Float(),
			Senders: pickPIDs(r, cfg.N, count),
		})
	}
	if cfg.PartitionRate > 0 && cfg.F > 0 && r.Float() < cfg.PartitionRate {
		island := pickPIDs(r, cfg.N, 1+r.Intn(cfg.F))
		mainland := complementPIDs(island, cfg.N)
		from := r.Intn(500)
		p.Components = append(p.Components, faultnet.Component{
			Kind:   faultnet.Partition,
			Groups: [][]core.PID{mainland, island},
			From:   from,
			Until:  from + 200 + r.Intn(2000),
			Name:   "split",
		})
	}
	return p
}

// randomCrashes draws up to MaxCrashes crash failures, each after a random
// number of network operations.
func randomCrashes(cfg Config, seed int64) map[core.PID]int {
	if cfg.MaxCrashes <= 0 {
		return nil
	}
	r := faultnet.NewRNG(seed ^ 0x0c4a54ed)
	count := r.Intn(cfg.MaxCrashes + 1)
	if count == 0 {
		return nil
	}
	out := make(map[core.PID]int, count)
	for _, p := range pickPIDs(r, cfg.N, count) {
		out[p] = 1 + r.Intn(30)
	}
	return out
}

func pickPIDs(r *faultnet.RNG, n, count int) []core.PID {
	perm := make([]core.PID, n)
	for i := range perm {
		perm[i] = core.PID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if count > n {
		count = n
	}
	out := append([]core.PID(nil), perm[:count]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func complementPIDs(in []core.PID, n int) []core.PID {
	member := make(map[core.PID]bool, len(in))
	for _, p := range in {
		member[p] = true
	}
	var out []core.PID
	for i := 0; i < n; i++ {
		if !member[core.PID(i)] {
			out = append(out, core.PID(i))
		}
	}
	return out
}

func crashString(crashes map[core.PID]int) string {
	if len(crashes) == 0 {
		return "none"
	}
	pids := make([]core.PID, 0, len(crashes))
	for p := range crashes {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	parts := make([]string, len(pids))
	for i, p := range pids {
		parts[i] = fmt.Sprintf("p%d@%d", p, crashes[p])
	}
	return strings.Join(parts, ",")
}

// runResult carries one execution's artifacts through checking. It is
// substrate-neutral on purpose: the checker needs the outcome, the
// decisions, and whether any round stalled — not which kind of report
// (step-clock reliablelink or wall-clock netsub) said so.
type runResult struct {
	out       *msgnet.RoundOutcome
	stalled   bool
	err       error
	decisions map[core.PID]core.Value
}

// Execute runs one k-set-agreement execution under the given scheduler
// seed, fault plan and crash pattern. Process i proposes the value i and
// decides the minimum of its round-1 view provided the view reached the
// n−f quorum; under QuorumBug it decides regardless of quorum.
func Execute(cfg Config, schedSeed int64, plan faultnet.Plan, crashes map[core.PID]int) (*msgnet.RoundOutcome, *reliablelink.RunReport, map[core.PID]core.Value, error) {
	cfg = cfg.withDefaults()
	if cfg.Observer != nil {
		for _, c := range plan.Partitions() {
			cfg.Observer.Event("faultnet.partition_span", -1, -1, map[string]any{
				"from": c.From, "until": c.Until, "name": c.Name,
			})
		}
	}
	roundF := cfg.F
	if cfg.SyncRounds {
		roundF = 0 // lock-step rounds: only the watchdog produces suspicions
	}
	out, rep, err := reliablelink.RunRounds(cfg.N, roundF, cfg.Rounds, reliablelink.RoundsConfig{
		Net: msgnet.Config{
			Chooser:  msgnet.Seeded(schedSeed),
			Crash:    crashes,
			MaxSteps: cfg.MaxSteps,
			Faults:   plan.Injector(),
			Observer: cfg.Observer,
		},
		Link:          reliablelink.Config{Observer: cfg.Observer},
		WatchdogSteps: cfg.WatchdogSteps,
		LingerSteps:   cfg.LingerSteps,
	}, func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		return int(me) // the proposal, re-broadcast every round
	})

	return out, rep, decide(cfg, out), err
}

// decide applies the decision rule to an outcome: process i decides the
// minimum of its round-1 view provided the view reached the n−f quorum
// (under QuorumBug, regardless of quorum). The rule reads only the
// outcome, so virtual and networked executions share it verbatim.
func decide(cfg Config, out *msgnet.RoundOutcome) map[core.PID]core.Value {
	decisions := make(map[core.PID]core.Value)
	if out == nil {
		return decisions
	}
	for i := 0; i < cfg.N; i++ {
		views := out.Views[core.PID(i)]
		if len(views) == 0 {
			continue // crashed before completing round 1: undecided
		}
		view := views[0]
		if len(view) < cfg.N-cfg.F && !cfg.QuorumBug {
			continue // sub-quorum view: abstain rather than risk safety
		}
		if len(view) == 0 {
			continue
		}
		decided := false
		min := 0
		for _, v := range view {
			if n, ok := v.(int); ok && (!decided || n < min) {
				min, decided = n, true
			}
		}
		if decided {
			decisions[core.PID(i)] = min
		}
	}
	return decisions
}

// check applies the safety invariants to one execution.
func check(cfg Config, res runResult) []Violation {
	var vs []Violation
	add := func(kind, format string, args ...any) {
		vs = append(vs, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	if res.err != nil {
		add("run-error", "execution failed instead of degrading: %v", res.err)
	}

	// Validity: every decided value is some process's proposal.
	for p, v := range res.decisions {
		n, ok := v.(int)
		if !ok || n < 0 || n >= cfg.N {
			add("validity", "p%d decided %v, which no process proposed", p, v)
		}
	}

	// k-agreement: at most K distinct decided values.
	distinct := make(map[core.Value]bool)
	for _, v := range res.decisions {
		distinct[v] = true
	}
	if len(distinct) > cfg.K {
		vals := make([]int, 0, len(distinct))
		for v := range distinct {
			if n, ok := v.(int); ok {
				vals = append(vals, n)
			}
		}
		sort.Ints(vals)
		add("k-agreement", "%d distinct decisions %v exceed k=%d", len(distinct), vals, cfg.K)
	}

	// Predicate conformance. With a TracePred the compiled model predicate
	// is checked on every completed execution (watchdog suspicions under a
	// model plan are modelled behaviour, not recovery noise); otherwise a
	// stall-free execution's trace must satisfy the eq. (3) per-round
	// suspicion budget — message loss that the link fully recovered leaves
	// no mark on the fault-detector level.
	if cfg.TracePred != nil {
		if res.out != nil && res.err == nil {
			if err := cfg.TracePred.Check(res.out.Trace); err != nil {
				add("predicate", "trace violates model %q: %v", cfg.TracePred.Name, err)
			}
		}
	} else if !res.stalled && res.out != nil && res.err == nil {
		if err := predicate.PerRoundBudget(cfg.F).Check(res.out.Trace); err != nil {
			add("predicate", "stall-free trace escapes eq.(3): %v", err)
		}
	}
	return vs
}

// Minimize delta-debugs a failing plan: it repeatedly removes components
// whose absence still reproduces a violation under the same scheduler seed
// and crash pattern, until no single removal keeps the failure.
func Minimize(cfg Config, schedSeed int64, plan faultnet.Plan, crashes map[core.PID]int) faultnet.Plan {
	cfg = cfg.withDefaults()
	cfg.Observer = nil // replays are unobserved
	cur := plan
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Components); i++ {
			cand := cur.WithoutComponent(i)
			out, rep, decisions, err := Execute(cfg, schedSeed, cand, crashes)
			if len(check(cfg, runResult{out, rep.Stalled(), err, decisions})) > 0 {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// Run executes the campaign: Runs randomized executions, each checked
// against the safety invariants, each violation minimized and reported.
//
// Runs are fanned out over cfg.Workers goroutines (see Config.Workers);
// each run is a pure function of its pre-drawn seeds, and aggregation
// happens in run order, so the result is independent of the worker count.
func Run(cfg Config) *Summary {
	cfg = cfg.withDefaults()
	sum := &Summary{Runs: cfg.Runs}

	type runOutcome struct {
		decided, undecided               int
		stalls, retransmissions, giveUps int
		steps                            int
		vs                               []Violation
	}
	spec := campaignSpec{seed: cfg.Seed, runs: cfg.Runs, workers: cfg.Workers, observed: cfg.Observer != nil,
		tel: cfg.Telemetry, wallName: "chaos_run_wall_ns", out: cfg.Out}
	runCampaign(spec, func(run int, sched, planSeed int64) runOutcome {
		plan := RandomPlan(cfg, planSeed)
		if cfg.FixedPlan != nil {
			plan = *cfg.FixedPlan
		}
		crashes := randomCrashes(cfg, planSeed)

		out, rep, decisions, err := Execute(cfg, sched, plan, crashes)
		oc := runOutcome{decided: len(decisions), undecided: cfg.N - len(decisions)}
		if rep != nil {
			oc.stalls = len(rep.Stalls)
			oc.retransmissions = rep.Retransmissions
			oc.giveUps = rep.GiveUps
			oc.steps = rep.Steps
		}
		oc.vs = check(cfg, runResult{out, rep.Stalled(), err, decisions})
		if len(oc.vs) == 0 {
			return oc
		}
		min := Minimize(cfg, sched, plan, crashes)
		for i := range oc.vs {
			oc.vs[i].Run = run
			oc.vs[i].SchedSeed = sched
			oc.vs[i].Plan = plan
			oc.vs[i].MinPlan = min
			oc.vs[i].Crashes = crashes
		}
		return oc
	}, func(oc runOutcome) []Violation {
		sum.Decided += oc.decided
		sum.Undecided += oc.undecided
		sum.Stalls += oc.stalls
		sum.Retransmissions += oc.retransmissions
		sum.GiveUps += oc.giveUps
		sum.Steps += oc.steps
		sum.Violations = append(sum.Violations, oc.vs...)
		return oc.vs
	}, sum)
	return sum
}
