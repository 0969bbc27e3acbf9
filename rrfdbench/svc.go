package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/serve"
	"repro/internal/wal"
)

// svcSpec is the make-up of one service workload.
type svcSpec struct {
	sync     wal.SyncMode
	depth    int // requests in flight per connection
	journal  int // instances in the pre-built journal
	roundOps int // ops per connection per round

	// roundsPerSec sets the load's size: a run of --seconds s does
	// seconds×roundsPerSec rounds, about what the reference machine
	// (README.md) does in that time. The count is fixed rather than the
	// duration, so the journal a restart replays, and the memory the run
	// holds, do not grow with throughput.
	roundsPerSec float64

	// Shares of a round's ops; the rest are fresh writes.
	query, resubmit, contend float64
}

// The cluster shape every service workload runs: n=3, f=1, so the quorum
// rule gathers n−f = 2 proposals and decides at most k = f+1 = 2
// distinct values per instance.
const (
	svcN, svcF, svcK = 3, 1, 2
	svcConns         = 2 // load connections, to nodes 0 and 1
	setupReps        = 5 // timed set-ups per run; setup_s is their median
	recoverReps      = 5 // kill-and-restart cycles per run; recover_s is the slowest
	probeQueries     = 1000
	requestTimeout   = 2 * time.Second // server-side deadline of a load request
	recoverTimeout   = 700 * time.Millisecond

	// recoverSettle is the quiet time before each kill, so that the last
	// decide broadcasts of the previous phase are not still reaching the
	// victim when it dies. After it, a peer's only writes to the victim
	// are heartbeats 500 ms apart, and the peers' first replies to the
	// restarted node are lost (fault F1, README.md) unless a heartbeat
	// happens to fall within the restart.
	recoverSettle = 200 * time.Millisecond
)

var (
	durableSpec = svcSpec{sync: wal.SyncAlways, depth: 8, journal: 20000, roundOps: 500, roundsPerSec: 2}
	readmixSpec = svcSpec{sync: wal.SyncNever, depth: 4, journal: 20000, roundOps: 2000, roundsPerSec: 4,
		query: 0.35, resubmit: 0.35, contend: 0.06}
)

func svcDurable(rc *runCtx) (*outcome, error) { return runSvc(rc, durableSpec) }
func svcReadmix(rc *runCtx) (*outcome, error) { return runSvc(rc, readmixSpec) }

// svcRun is the state of one service pass.
type svcRun struct {
	rc   *runCtx
	spec svcSpec
	dir  string
	reg  *hist.Registry // attached on traced passes only
	cl   *serve.Cluster
	led  *ledger
	rng  *rand.Rand
	oc   *outcome
}

func runSvc(rc *runCtx, spec svcSpec) (*outcome, error) {
	s := &svcRun{
		rc: rc, spec: spec,
		dir: filepath.Join(rc.work, fmt.Sprintf("svc-%d", time.Now().UnixNano())),
		rng: rand.New(rand.NewPCG(uint64(rc.seed), 0x5eed)),
		oc:  &outcome{e2e: map[string]float64{}, layer: map[string]float64{}},
	}
	if rc.tr != nil {
		s.reg = hist.NewRegistry()
	}
	defer func() {
		if s.cl != nil {
			s.cl.Close()
		}
	}()
	recorded, err := s.buildJournal()
	if err != nil {
		return nil, err
	}
	s.led = newLedger(svcN, recorded)
	if err := s.setup(); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.cl.Close()
	s.cl = nil
	if err := s.checkJournals(); err != nil {
		return nil, err
	}
	if err := s.led.check(svcK); err != nil {
		return nil, &checkError{err}
	}
	return s.oc, nil
}

func (s *svcRun) start() (*serve.Cluster, error) {
	return serve.StartCluster(serve.ClusterConfig{
		N: svcN, F: svcF, K: svcK,
		Dir:  s.dir,
		Sync: s.spec.sync,
		Seed: s.rc.seed,
		Hist: s.reg,
	})
}

// buildJournal fills the cluster's journals with spec.journal decided
// instances through the wire protocol (untimed), and returns the value
// each was decided with. It runs under SyncNever whatever the
// workload's mode: the records are the same, only faster to write.
func (s *svcRun) buildJournal() (map[string]int, error) {
	sp := s.rc.tr.open("svc.build", 0, 0)
	defer s.rc.tr.close(sp)
	cl, err := serve.StartCluster(serve.ClusterConfig{N: svcN, F: svcF, K: svcK, Dir: s.dir, Seed: s.rc.seed})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	led := newLedger(svcN, nil)
	per := make([][]op, svcConns)
	for i := 0; i < s.spec.journal; i++ {
		o := op{kind: opFresh, inst: "p" + strconv.Itoa(i), val: 1 + s.rng.IntN(1<<30)}
		led.submit(o)
		per[i%svcConns] = append(per[i%svcConns], o)
	}
	answers, err := s.drive(cl.ClientAddrs(), "b", per, 32, sp.ID)
	if err != nil {
		return nil, fmt.Errorf("build journal: %w", err)
	}
	for _, as := range answers {
		for _, a := range as {
			led.add(a)
		}
	}
	if led.failed > 0 {
		return nil, fmt.Errorf("build journal: %d submits not decided", led.failed)
	}
	if err := led.check(svcK); err != nil {
		return nil, &checkError{fmt.Errorf("build journal: %w", err)}
	}
	recorded := make(map[string]int, s.spec.journal)
	for _, acked := range led.acked {
		for inst, v := range acked {
			recorded[inst] = v
		}
	}
	return recorded, nil
}

// drive runs per[c] through a pipelined connection to node c, all
// connections at once and lined up at each contended op (pairGate), and
// returns each connection's answers.
func (s *svcRun) drive(addrs []string, tag string, per [][]op, depth int, parent uint64) ([][]answer, error) {
	answers := make([][]answer, len(per))
	errs := make([]error, len(per))
	gate := newPairGate(len(per))
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc, err := dialPipe(addrs[c], c, tag+strconv.Itoa(c)+".", requestTimeout)
			if err != nil {
				gate.leave(c)
				errs[c] = err
				return
			}
			defer pc.Close()
			pc.gate, pc.side = gate, c
			answers[c] = make([]answer, 0, len(per[c]))
			errs[c] = pc.drive(per[c], depth, s.rc.tr, parent, func(a answer) {
				answers[c] = append(answers[c], a)
			})
		}(c)
	}
	wg.Wait()
	return answers, errors.Join(errs...)
}

// submitOne submits one fresh instance to node through serve.Client
// and records the answer in the ledger.
func (s *svcRun) submitOne(node int, inst string, timeout time.Duration) (attempts int64, err error) {
	c := serve.NewClient(serve.ClientConfig{Addr: s.cl.ClientAddrs()[node], Timeout: timeout, Seed: s.rc.seed})
	defer c.Close()
	o := op{kind: opFresh, inst: inst, val: 1 + s.rng.IntN(1<<30)}
	s.led.submit(o)
	resp, err := c.Submit(o.inst, inst, o.val)
	if err != nil {
		return c.Attempts, fmt.Errorf("submit %s to node %d: %w", inst, node, err)
	}
	s.led.add(answer{op: o, node: node, status: resp.Status, val: resp.Val})
	if resp.Status != serve.StatusDecided {
		return c.Attempts, fmt.Errorf("submit %s to node %d: %s after %d attempts", inst, node, resp.Status, c.Attempts)
	}
	return c.Attempts, nil
}

// setup times setupReps cluster starts over the pre-built journal, each
// until every node has decided one warm-up request. The last cluster
// stays up for the load.
func (s *svcRun) setup() error {
	var total, replay, warm []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		sp := s.rc.tr.open("svc.setup", 0, 0)
		t0 := time.Now()
		cl, err := s.start()
		if err != nil {
			return err
		}
		s.cl = cl
		t1 := time.Now()
		s.rc.tr.record("svc.setup.start", sp.ID, 0, t0, t1)
		for node := 0; node < svcN; node++ {
			if _, err := s.submitOne(node, fmt.Sprintf("w%d.%d", rep, node), requestTimeout); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		t2 := time.Now()
		s.rc.tr.record("svc.setup.warm", sp.ID, 0, t1, t2)
		s.rc.tr.close(sp)
		total = append(total, t2.Sub(t0))
		replay = append(replay, t1.Sub(t0))
		warm = append(warm, t2.Sub(t1))
		if rep < setupReps-1 {
			s.cl.Close()
			s.cl = nil
		}
	}
	s.oc.e2e["setup_s"] = median(total).Seconds()
	s.oc.layer["setup.replay_s"] = median(replay).Seconds()
	s.oc.layer["setup.warm_s"] = median(warm).Seconds()
	return nil
}

// roundLayout is the op kind at each position of a round, shared by both
// connections so contended positions line up, plus each connection's
// pre-built instance and value per position. Every round replays it;
// only fresh and contended instance names change per round.
type roundLayout struct {
	kinds []opKind
	insts [svcConns][]string
	vals  [svcConns][]int
}

func (s *svcRun) layout() roundLayout {
	var l roundLayout
	sp := s.spec
	for i := 0; i < sp.roundOps; i++ {
		x := s.rng.Float64()
		k := opFresh
		switch {
		case x < sp.query:
			k = opQuery
		case x < sp.query+sp.resubmit:
			k = opResubmit
		case x < sp.query+sp.resubmit+sp.contend:
			k = opContend
		}
		l.kinds = append(l.kinds, k)
		for c := 0; c < svcConns; c++ {
			l.insts[c] = append(l.insts[c], "p"+strconv.Itoa(s.rng.IntN(sp.journal)))
			l.vals[c] = append(l.vals[c], 1+s.rng.IntN(1<<30))
		}
	}
	return l
}

func (l roundLayout) ops(round, c int) []op {
	ops := make([]op, len(l.kinds))
	for i, k := range l.kinds {
		o := op{kind: k, inst: l.insts[c][i], val: l.vals[c][i]}
		switch k {
		case opQuery:
			o.val = 0
		case opFresh:
			o.inst = fmt.Sprintf("f%d.%d.%d", round, c, i)
		case opContend:
			o.inst = fmt.Sprintf("c%d.%d", round, i)
		}
		ops[i] = o
	}
	return ops
}

// nodeCounters sums the layers' cumulative counters over the cluster.
type nodeCounters struct {
	serve                serve.Stats
	appends, batches     int64
	framesSent, netSheds int64
}

func (s *svcRun) counters() nodeCounters {
	var c nodeCounters
	for _, sv := range s.cl.Servers {
		st := sv.Stats()
		c.serve.Decisions += st.Decisions
		c.serve.Adopted += st.Adopted
		c.serve.PeerDecides += st.PeerDecides
		c.serve.IdempotentHits += st.IdempotentHits
		c.serve.Abstains += st.Abstains
		c.serve.Overloads += st.Overloads
		js := sv.JournalStats()
		c.appends += js.Appends
		c.batches += js.Batches
		ms := sv.Mesh().Stats()
		c.framesSent += ms.FramesSent
		c.netSheds += ms.Sheds
	}
	return c
}

// load runs whole rounds of the closed loop until the run's time is
// spent, then fills the end-to-end and per-layer load metrics.
func (s *svcRun) load() error {
	lay := s.layout()
	if s.reg != nil {
		s.reg.Reset() // per-layer histograms cover the load alone
	}
	c0, p0 := s.counters(), sampleProc()
	writes0 := s.led.byKind[opFresh] + s.led.byKind[opContend]
	resubmits0 := s.led.byKind[opResubmit]
	var contended []string
	sp := s.rc.tr.open("svc.load", 0, 0)
	var figs roundFigures
	for round := 0; round < roundsFor(s.rc.seconds, s.spec.roundsPerSec); round++ {
		rsp := s.rc.tr.open("svc.round", sp.ID, 0)
		per := make([][]op, svcConns)
		for c := range per {
			per[c] = lay.ops(round, c)
			for _, o := range per[c] {
				if o.kind == opFresh || o.kind == opContend {
					s.led.submit(o)
				}
				if c == 0 && o.kind == opContend {
					contended = append(contended, o.inst)
				}
			}
		}
		t0 := time.Now()
		answers, err := s.drive(s.cl.ClientAddrs(), fmt.Sprintf("l%d.", round), per, s.spec.depth, rsp.ID)
		if err != nil {
			return fmt.Errorf("load round %d: %w", round, err)
		}
		d := time.Since(t0)
		s.rc.tr.close(rsp)
		failedBefore := s.led.failed
		var lats []time.Duration
		for _, as := range answers {
			for _, a := range as {
				s.led.add(a)
				if a.status == serve.StatusDecided {
					lats = append(lats, a.lat) // failures count in failed, not in latency
				}
			}
		}
		n := len(per[0]) * svcConns
		s.oc.attempted += int64(n)
		figs.add(n-int(s.led.failed-failedBefore), d, lats)
	}
	s.rc.tr.close(sp)
	c1, p1 := s.counters(), sampleProc()
	s.oc.failed = s.led.failed
	figs.fill(s.oc.e2e)
	ops := s.oc.attempted

	l := s.oc.layer
	writes := s.led.byKind[opFresh] + s.led.byKind[opContend] - writes0
	l["serve.decides_per_req"] = ratio(c1.serve.Decisions-c0.serve.Decisions, writes)
	l["serve.adopt_ratio"] = ratio(c1.serve.Adopted-c0.serve.Adopted, c1.serve.PeerDecides-c0.serve.PeerDecides)
	l["serve.idempotent_hits"] = float64(c1.serve.IdempotentHits - c0.serve.IdempotentHits)
	l["serve.abstains"] = float64(c1.serve.Abstains - c0.serve.Abstains)
	l["serve.overloads"] = float64(c1.serve.Overloads - c0.serve.Overloads)
	if n := int64(len(contended)); n > 0 {
		// A submit answered from the decision table is either a
		// re-submit of a pre-built instance or a contended submit that
		// reached its node after the other connection's proposal had
		// already decided the instance there. Only the first submit of a
		// contended instance can be late, so the rest are contended
		// instances at which both proposals entered the quorum rule.
		late := c1.serve.IdempotentHits - c0.serve.IdempotentHits - (s.led.byKind[opResubmit] - resubmits0)
		var split int64
		for _, inst := range contended {
			if len(s.led.decided[inst]) > 1 {
				split++
			}
		}
		l["serve.contend_both_share"] = 1 - ratio(late, n)
		l["serve.contend_split_share"] = ratio(split, n)
	}
	l["wal.records_per_commit"] = ratio(c1.appends-c0.appends, c1.batches-c0.batches)
	l["wal.commits_per_req"] = ratio(c1.batches-c0.batches, ops)
	l["net.frames_per_req"] = ratio(c1.framesSent-c0.framesSent, ops)
	l["net.sheds"] = float64(c1.netSheds - c0.netSheds)
	procLayer(l, p0, p1, ops)
	if s.reg != nil {
		q := func(name string, q float64) float64 { return float64(s.reg.Get(name).Quantile(q)) }
		l["serve.request_ms_p50"] = q("serve_request_ns", 0.50) / 1e6
		l["serve.request_ms_p99"] = q("serve_request_ns", 0.99) / 1e6
		l["serve.wire_ms_p50"] = s.oc.e2e["lat_p50_ms"] - l["serve.request_ms_p50"]
		l["serve.gather_ms_p50"] = q("serve_decide_ns", 0.50) / 1e6
		l["serve.inflight_p99"] = q("serve_inflight_depth", 0.99)
		l["wal.batch_p99"] = q("serve_wal_batch", 0.99)
		l["net.bcast_batch_p50"] = q("serve_bcast_batch", 0.50)
		l["net.rtt_ms_p50"] = q("netsub_rtt_ns", 0.50) / 1e6
		l["net.queue_depth_p99"] = q("netsub_queue_depth", 0.99)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// recover kills node 0, restarts it on its journal and times until it
// decides a fresh request through serve.Client, recoverReps times. Each
// restart must hold every decision node 0 acknowledged before its kill,
// and after the first one a sample of them is queried over the wire.
//
// recover_s is the slowest cycle: the longest a client of the restarted
// node waits for service. A cycle is fast only when a peer's heartbeat
// happened to fall within the restart (see recoverSettle), so the
// slowest of several cycles reads the same on every run.
func (s *svcRun) recover() error {
	const victim = 0
	var restart []time.Duration
	var slowest, slowRejoin time.Duration
	var slowAttempts int64
	for rep := 0; rep < recoverReps; rep++ {
		sp := s.rc.tr.open("svc.recover", 0, 0)
		acked := make(map[string]int, len(s.led.acked[victim]))
		for k, v := range s.led.acked[victim] {
			acked[k] = v
		}
		time.Sleep(recoverSettle)
		s.cl.Servers[victim].Kill()
		t0 := time.Now()
		sv, err := s.cl.Restart(victim, nil)
		if err != nil {
			return err
		}
		t1 := time.Now()
		s.rc.tr.record("svc.recover.restart", sp.ID, 0, t0, t1)
		n, err := s.submitOne(victim, fmt.Sprintf("r%d", rep), recoverTimeout)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		t2 := time.Now()
		s.rc.tr.record("svc.recover.rejoin", sp.ID, 0, t1, t2)
		s.rc.tr.close(sp)
		restart = append(restart, t1.Sub(t0))
		if t2.Sub(t0) > slowest {
			slowest, slowRejoin, slowAttempts = t2.Sub(t0), t2.Sub(t1), n
		}
		if err := checkRecovered(victim, acked, sv.RecoveredDecisions()); err != nil {
			return &checkError{err}
		}
		if rep == 0 {
			if err := s.probe(victim, acked); err != nil {
				return err
			}
		}
	}
	s.oc.e2e["recover_s"] = slowest.Seconds()
	s.oc.layer["recover.restart_s"] = median(restart).Seconds()
	s.oc.layer["recover.rejoin_s"] = slowRejoin.Seconds()
	s.oc.layer["recover.attempts"] = float64(slowAttempts)
	return nil
}

// probe queries a seeded sample of the decisions node acknowledged
// before its kill and checks each answer matches.
func (s *svcRun) probe(node int, acked map[string]int) error {
	insts := make([]string, 0, len(acked))
	for inst := range acked {
		insts = append(insts, inst)
	}
	sort.Strings(insts)
	s.rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	if len(insts) > probeQueries {
		insts = insts[:probeQueries]
	}
	ops := make([]op, len(insts))
	for i, inst := range insts {
		ops[i] = op{kind: opQuery, inst: inst}
	}
	pc, err := dialPipe(s.cl.ClientAddrs()[node], node, "q.", requestTimeout)
	if err != nil {
		return err
	}
	defer pc.Close()
	got := make(map[string]int, len(ops))
	if err := pc.drive(ops, 16, nil, 0, func(a answer) {
		if a.status == serve.StatusDecided {
			got[a.op.inst] = a.val
		}
	}); err != nil {
		return fmt.Errorf("probe restarted node: %w", err)
	}
	want := make(map[string]int, len(insts))
	for _, inst := range insts {
		want[inst] = acked[inst]
	}
	if err := containsAll(want, got); err != nil {
		return &checkError{fmt.Errorf("restarted node %d over the wire: %w", node, err)}
	}
	return nil
}

// checkJournals reads every node's journal offline after the cluster
// has closed and checks it holds every decision the node acknowledged.
func (s *svcRun) checkJournals() error {
	sp := s.rc.tr.open("svc.journal_check", 0, 0)
	defer s.rc.tr.close(sp)
	for node := 0; node < svcN; node++ {
		js, err := serve.ReadJournal(filepath.Join(s.dir, fmt.Sprintf("n%d", node)))
		if err != nil {
			return fmt.Errorf("read journal of node %d: %w", node, err)
		}
		if err := checkJournal(node, s.led.acked[node], js); err != nil {
			return &checkError{err}
		}
	}
	return nil
}
