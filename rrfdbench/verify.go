package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/par"
	"repro/internal/predicate"
)

// The shape of the verify-catalog workload. Every round runs the same
// operations on inputs drawn once from the seed:
//
//   - each hoalg catalog model explored exhaustively by mc at n=3 with
//     its compiled checker, once at one worker and once at nproc, then
//     modelRuns honest and modelRuns breaker chaos runs at n=5;
//   - agreement.QuorumKSet explored at both worker counts, and
//     QuorumKSetBuggy explored until its counterexample, which is
//     replayed;
//   - randomRuns chaos runs under random drop/dup/delay/partition/crash
//     plans, honest and with QuorumBug on the same seeds;
//   - recoverRuns crash-recovery runs, honest and with AmnesiaBug on the
//     same seeds.
const (
	mcN, mcF, mcK = 3, 1, 2
	chaosN        = 5
	modelRuns     = 8
	randomRuns    = 100
	recoverRuns   = 40

	// verifySetupReps is the number of timed set-ups before each round;
	// set-up takes about 2 ms, so many repetitions steady the median.
	verifySetupReps = 10

	// verifyRoundsPerSec sizes a run as svcSpec.roundsPerSec does: one
	// round takes about 5 s on the reference machine.
	verifyRoundsPerSec = 0.2
)

// compiledModel is one catalog model compiled for the round.
type compiledModel struct {
	name     string
	branches []hoalg.Branch
	pred     predicate.P     // compiled checker at mcN
	closed   int             // closed-form schedule count, 0 when none is known
	chaos    predicate.P     // compiled checker at chaosN
	honest   []faultnet.Plan // one per model run
	breaker  []faultnet.Plan
}

// verifyRun is the state of one verify-catalog pass.
type verifyRun struct {
	rc      *runCtx
	oc      *outcome
	workers int

	models     []compiledModel
	modelSeeds []int64 // scheduler seed of each model run
	planSeeds  []int64 // fault plan seed of each model run
	randSeeds  []int64
	recSeeds   []int64

	mu       sync.Mutex
	lats     []time.Duration // every checked execution of the current round
	schedule []time.Duration // mc schedules
	runs     []time.Duration // chaos runs of every kind
	recovers []time.Duration // crash-recovery runs

	setups, compiles, warms []time.Duration

	// Counts summed over rounds; every round repeats the same ones.
	stats                     mc.Stats
	chaosRuns, steps, retrans int
	replayed, execs           int
}

func verifyCatalog(rc *runCtx) (*outcome, error) {
	v := &verifyRun{
		rc: rc, workers: runtime.NumCPU(),
		oc: &outcome{e2e: map[string]float64{}, layer: map[string]float64{}},
	}
	rng := rand.New(rand.NewPCG(uint64(rc.seed), 0xca7))
	draw := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = 1 + rng.Int64N(1<<30)
		}
		return s
	}
	v.modelSeeds = draw(modelRuns)
	v.planSeeds = draw(modelRuns)
	v.randSeeds = draw(randomRuns)
	v.recSeeds = draw(recoverRuns)

	p0 := sampleProc()
	var figs roundFigures
	rounds := roundsFor(rc.seconds, verifyRoundsPerSec)
	for r := 0; r < rounds; r++ {
		if err := v.setup(); err != nil {
			return nil, err
		}
		execs := v.execs
		v.lats = v.lats[:0]
		t0 := time.Now()
		if err := v.round(r); err != nil {
			return nil, err
		}
		figs.add(v.execs-execs, time.Since(t0), v.lats)
	}
	p1 := sampleProc()

	v.oc.attempted = int64(v.execs)
	figs.fill(v.oc.e2e)
	v.oc.e2e["setup_s"] = median(v.setups).Seconds()
	v.oc.layer["setup.replay_s"] = median(v.compiles).Seconds()
	v.oc.layer["setup.warm_s"] = median(v.warms).Seconds()
	v.oc.e2e["recover_s"] = median(v.recovers).Seconds()

	l := v.oc.layer
	per := float64(rounds)
	l["mc.schedules"] = float64(v.stats.Schedules) / per
	l["mc.pruned"] = float64(v.stats.Pruned) / per
	l["mc.symmetry_skips"] = float64(v.stats.SymmetrySkips) / per
	l["mc.schedule_us_p50"] = float64(quantile(v.schedule, 0.5)) / float64(time.Microsecond)
	l["chaos.runs"] = float64(v.chaosRuns) / per
	l["chaos.run_ms_p50"] = ms(quantile(v.runs, 0.50))
	l["chaos.run_ms_p99"] = ms(quantile(v.runs, 0.99))
	l["chaos.steps_per_run"] = float64(v.steps) / float64(v.chaosRuns)
	l["chaos.retransmits_per_run"] = float64(v.retrans) / float64(v.chaosRuns)
	l["recovery.replayed_rounds"] = float64(v.replayed) / per
	procLayer(l, p0, p1, int64(v.execs))
	return v.oc, nil
}

// setup compiles the catalog and runs one warm-up schedule of every
// enumeration branch, verifySetupReps times; the rounds use the last
// compilation. It runs before every round, so the set-up figures sample
// the machine across the whole run.
func (v *verifyRun) setup() error {
	for rep := 0; rep < verifySetupReps; rep++ {
		sp := v.rc.tr.open("verify.setup", 0, 0)
		t0 := time.Now()
		models, err := compileCatalog(v.planSeeds)
		if err != nil {
			return err
		}
		t1 := time.Now()
		for _, m := range models {
			for _, b := range m.branches {
				_ = mc.Replay(nil, modelRun(b, m.pred)) // warm-up schedule; verdicts are checked in the rounds
			}
		}
		t2 := time.Now()
		v.rc.tr.close(sp)
		v.setups = append(v.setups, t2.Sub(t0))
		v.compiles = append(v.compiles, t1.Sub(t0))
		v.warms = append(v.warms, t2.Sub(t1))
		v.models = models
	}
	return nil
}

// compileCatalog builds every catalog model's expression, enumeration
// branches, checkers and fault plans.
func compileCatalog(planSeeds []int64) ([]compiledModel, error) {
	p := hoalg.Params{N: mcN, F: mcF, K: mcK, Stab: 1}
	cp := hoalg.Params{N: chaosN, F: mcF, K: mcK, Stab: 1}
	var out []compiledModel
	for _, m := range hoalg.Catalog() {
		e, ce := m.Build(p), m.Build(cp)
		branches, err := e.EnumBranches(mcN)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		cm := compiledModel{name: m.Name, branches: branches, pred: e.Compile(), chaos: ce.Compile()}
		for _, seed := range planSeeds {
			honest, err := ce.CompilePlan(chaosN, seed)
			if err != nil {
				return nil, fmt.Errorf("%s honest plan: %w", m.Name, err)
			}
			breaker, err := hoalg.Not(ce).CompilePlan(chaosN, seed)
			if err != nil {
				return nil, fmt.Errorf("%s breaker plan: %w", m.Name, err)
			}
			cm.honest = append(cm.honest, honest)
			cm.breaker = append(cm.breaker, breaker)
		}
		if e.Equal(hoalg.PerRound(mcF)) {
			// FloodMin runs f+1 rounds under the eq. (3) adversary.
			cm.closed = perRoundSchedules(mcN, mcF, mcF+1)
		}
		out = append(out, cm)
	}
	return out, nil
}

// modelRun is the mc run function for one enumeration branch: FloodMin
// under the branch's enumerated adversary, checked for validity and
// against the model's compiled checker.
func modelRun(b hoalg.Branch, pred predicate.P) func(*mc.Ctx) error {
	inputs := []core.Value{0, 1, 2}
	enum := b.Enum
	return mc.CheckRun(mc.RunSpec{
		N: mcN, Inputs: inputs,
		Factory: agreement.FloodMin(mcF + 1),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, mcN, adversary.Enum(enum))
		},
		Props: []mc.Property{mc.Validity(inputs)},
		Model: &pred,
	})
}

// quorumRun is the service rule under the eq. (3) adversary at n=3,
// checked for validity and k-agreement.
func quorumRun(factory core.Factory) (func(*mc.Ctx) error, error) {
	enum, err := adversary.EnumPerRoundBudget(mcN, mcF)
	if err != nil {
		return nil, err
	}
	inputs := []core.Value{0, 1, 2}
	return mc.CheckRun(mc.RunSpec{
		N: mcN, Inputs: inputs, Factory: factory,
		Oracle: func(ctx *mc.Ctx) core.Oracle { return adversary.Enumerated(ctx, mcN, enum) },
		Props:  []mc.Property{mc.Validity(inputs), mc.KAgreement(mcK)},
		Mark:   true,
	}), nil
}

func (v *verifyRun) note(dst *[]time.Duration, d time.Duration) {
	v.mu.Lock()
	*dst = append(*dst, d)
	v.lats = append(v.lats, d)
	v.execs++
	v.mu.Unlock()
}

// explore runs one mc exploration with every schedule timed.
func (v *verifyRun) explore(name string, parent uint64, workers int, run func(*mc.Ctx) error) (*mc.Result, error) {
	sp := v.rc.tr.open("mc."+name, parent, 0)
	defer v.rc.tr.close(sp)
	res, err := mc.Explore(mc.Options{Workers: workers}, func(ctx *mc.Ctx) error {
		t0 := time.Now()
		err := run(ctx)
		t1 := time.Now()
		v.note(&v.schedule, t1.Sub(t0))
		v.rc.tr.record("mc.schedule", sp.ID, 0, t0, t1)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	v.stats.Schedules += res.Schedules
	v.stats.Pruned += res.Pruned
	v.stats.SymmetrySkips += res.SymmetrySkips
	return res, nil
}

// exploreBoth explores run at one worker and at nproc workers, checks
// each runs to the end with no counterexample, and returns both counts.
func (v *verifyRun) exploreBoth(name string, parent uint64, run func(*mc.Ctx) error) ([2]mc.Stats, error) {
	var counts [2]mc.Stats
	for i, w := range []int{1, v.workers} {
		res, err := v.explore(fmt.Sprintf("%s/w%d", name, w), parent, w, run)
		if err != nil {
			return counts, err
		}
		if err := exploreVerdict(name, res); err != nil {
			return counts, &checkError{err}
		}
		counts[i] = res.Stats
	}
	return counts, nil
}

// runStats is what one checked chaos run reports.
type runStats struct{ violations, steps, retrans, replayed int }

// campaign runs one checked execution per seed over nproc workers and
// checks the violations summed: none when honest, at least one when a
// bug or breaker plan is planted.
func (v *verifyRun) campaign(name string, honest bool, parent uint64, seeds []int64, dst *[]time.Duration, one func(i int, seed int64) runStats) error {
	sp := v.rc.tr.open("chaos."+name, parent, 0)
	defer v.rc.tr.close(sp)
	out, err := par.Map(v.workers, len(seeds), func(j int) runStats {
		t0 := time.Now()
		st := one(j, seeds[j])
		t1 := time.Now()
		v.note(dst, t1.Sub(t0))
		v.rc.tr.record("chaos.run", sp.ID, 0, t0, t1)
		return st
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	total := 0
	for _, o := range out {
		total += o.violations
		v.steps += o.steps
		v.retrans += o.retrans
		v.replayed += o.replayed
	}
	v.chaosRuns += len(seeds)
	if err := campaignVerdict(name, honest, total); err != nil {
		return &checkError{err}
	}
	return nil
}

// chaosOne is one checked chaos run; plans, when given, fixes run i's
// fault plan to plans[i].
func chaosOne(cfg chaos.Config, plans []faultnet.Plan) func(i int, seed int64) runStats {
	return func(i int, seed int64) runStats {
		c := cfg
		c.Runs, c.Seed, c.Workers = 1, seed, 1
		if plans != nil {
			c.FixedPlan = &plans[i]
		}
		s := chaos.Run(c)
		return runStats{violations: len(s.Violations), steps: s.Steps, retrans: s.Retransmissions}
	}
}

func recoverOne(cfg chaos.RecoverConfig) func(i int, seed int64) runStats {
	return func(_ int, seed int64) runStats {
		c := cfg
		c.Runs, c.Seed, c.Workers = 1, seed, 1
		s := chaos.RunRecover(c)
		return runStats{violations: len(s.Violations), steps: s.Steps, replayed: s.ReplayedRounds}
	}
}

// round runs one round of the workload's operations and checks every
// verdict.
func (v *verifyRun) round(r int) error {
	sp := v.rc.tr.open("verify.round", 0, uint64(r))
	defer v.rc.tr.close(sp)
	for _, m := range v.models {
		msp := v.rc.tr.open("verify.model."+m.name, sp.ID, 0)
		var counts [2]mc.Stats
		for bi, b := range m.branches {
			got, err := v.exploreBoth(fmt.Sprintf("%s/b%d", m.name, bi), msp.ID, modelRun(b, m.pred))
			if err != nil {
				return err
			}
			for i := range counts {
				counts[i].Schedules += got[i].Schedules
				counts[i].Pruned += got[i].Pruned
				counts[i].SymmetrySkips += got[i].SymmetrySkips
			}
		}
		if err := countVerdict(m.name, m.closed, counts[0], counts[1]); err != nil {
			return &checkError{err}
		}
		base := chaos.Config{N: chaosN, F: mcF, K: mcK, Rounds: 3, SyncRounds: true, TracePred: &m.chaos}
		if err := v.campaign(m.name+".honest", true, msp.ID, v.modelSeeds, &v.runs, chaosOne(base, m.honest)); err != nil {
			return err
		}
		if err := v.campaign(m.name+".breaker", false, msp.ID, v.modelSeeds, &v.runs, chaosOne(base, m.breaker)); err != nil {
			return err
		}
		v.rc.tr.close(msp)
	}

	// The service's decision rule, honest and with its planted bug.
	honestRun, err := quorumRun(agreement.QuorumKSet(mcF))
	if err != nil {
		return err
	}
	counts, err := v.exploreBoth("quorum-kset", sp.ID, honestRun)
	if err != nil {
		return err
	}
	if err := countVerdict("quorum-kset", perRoundSchedules(mcN, mcF, 1), counts[0], counts[1]); err != nil {
		return &checkError{err}
	}
	buggyRun, err := quorumRun(agreement.QuorumKSetBuggy(mcF))
	if err != nil {
		return err
	}
	res, err := v.explore("quorum-kset-buggy", sp.ID, v.workers, buggyRun)
	if err != nil {
		return err
	}
	var replayErr error
	if res.Counterexample != nil {
		replayErr = mc.Replay(res.Counterexample.Choices, buggyRun)
	}
	if err := bugVerdict("quorum-kset-buggy", res, replayErr); err != nil {
		return &checkError{err}
	}

	// Random fault campaigns: the honest rule passes the seeds on which
	// QuorumBug is caught.
	random := chaos.Config{N: chaosN, F: mcF, K: mcK, DropRate: 1.0, DupRate: 0.3, DelayRate: 0.4, OmitRate: 0.8,
		PartitionRate: 0.6, MaxCrashes: 1, WatchdogSteps: 300}
	buggy := random
	buggy.QuorumBug = true
	if err := v.campaign("random.honest", true, sp.ID, v.randSeeds, &v.runs, chaosOne(random, nil)); err != nil {
		return err
	}
	if err := v.campaign("random.quorumbug", false, sp.ID, v.randSeeds, &v.runs, chaosOne(buggy, nil)); err != nil {
		return err
	}

	// Crash-recovery campaigns, honest and with AmnesiaBug.
	rec := chaos.RecoverConfig{N: chaosN, F: mcF}
	amnesia := rec
	amnesia.AmnesiaBug = true
	if err := v.campaign("recover.honest", true, sp.ID, v.recSeeds, &v.recovers, recoverOne(rec)); err != nil {
		return err
	}
	if err := v.campaign("recover.amnesia", false, sp.ID, v.recSeeds, &v.recovers, recoverOne(amnesia)); err != nil {
		return err
	}
	return nil
}
