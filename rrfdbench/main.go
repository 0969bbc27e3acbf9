// Command rrfdbench is the repository's end-to-end benchmark. One run
// executes one workload, a fixed amount of work sized by --seconds,
// checks every output it produced, and prints one JSON object as its
// last line of output:
//
//	rrfdbench --workload svc-durable --seed 7 --seconds 15 --trace 0
//
// Workloads:
//
//   - svc-durable: a 3-node loopback agreement service under
//     wal.SyncAlways, every request opening a fresh instance. Runnable,
//     but not in BENCHMARK.json: its p99 follows the fsync tail of the
//     machine's disk and does not repeat within a gate's bound.
//   - svc-readmix: the same cluster under wal.SyncNever, about 70% reads
//     of a pre-built journal, the rest fresh and contended writes.
//   - verify-catalog: the offline toolchain — every hoalg catalog model
//     through mc and chaos, the service rule's planted bug, random and
//     crash-recovery chaos campaigns.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, read from the layers'
// exported counters and histograms and from spans the benchmark records
// around its own calls (written to .bench_build/spans/). See README.md.
//
// "rrfdbench steady" runs workloads repeatedly and prints each
// end-to-end metric's median, quartiles and spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares, and every run prints all of one list.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"setup_s", "s"},
	{"recover_s", "s"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.request_ms_p50", "ms"},
	{"serve.request_ms_p99", "ms"},
	{"serve.wire_ms_p50", "ms"},
	{"serve.gather_ms_p50", "ms"},
	{"serve.inflight_p99", "count"},
	{"serve.decides_per_req", "ratio"},
	{"serve.adopt_ratio", "ratio"},
	{"serve.idempotent_hits", "count"},
	{"serve.abstains", "count"},
	{"serve.overloads", "count"},
	{"serve.contend_both_share", "ratio"},
	{"serve.contend_split_share", "ratio"},
	{"wal.records_per_commit", "ratio"},
	{"wal.batch_p99", "count"},
	{"wal.commits_per_req", "ratio"},
	{"net.frames_per_req", "ratio"},
	{"net.bcast_batch_p50", "count"},
	{"net.sheds", "count"},
	{"net.rtt_ms_p50", "ms"},
	{"net.queue_depth_p99", "count"},
	{"setup.replay_s", "s"},
	{"setup.warm_s", "s"},
	{"recover.restart_s", "s"},
	{"recover.rejoin_s", "s"},
	{"recover.attempts", "count"},
	{"mc.schedules", "count"},
	{"mc.pruned", "count"},
	{"mc.symmetry_skips", "count"},
	{"mc.schedule_us_p50", "us"},
	{"chaos.runs", "count"},
	{"chaos.run_ms_p50", "ms"},
	{"chaos.run_ms_p99", "ms"},
	{"chaos.steps_per_run", "count"},
	{"chaos.retransmits_per_run", "count"},
	{"recovery.replayed_rounds", "count"},
	{"proc.cpu_ms_per_kop", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cycles", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_ops_per_s", "ops/s"},
}

// runCtx is what one pass of a workload is given.
type runCtx struct {
	seed    int64
	seconds time.Duration
	work    string  // scratch directory inside the checkout
	tr      *tracer // nil on untraced passes
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64 // by endToEnd name, rss excluded
	layer             map[string]float64 // by perLayer name; absent means 0
}

type workload func(rc *runCtx) (*outcome, error)

var workloads = map[string]workload{
	"svc-durable":    svcDurable,
	"svc-readmix":    svcReadmix,
	"verify-catalog": verifyCatalog,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "rrfdbench steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "svc-durable, svc-readmix or verify-catalog")
	seed := flag.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 10, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rrfdbench: need --workload (svc-durable|svc-readmix|verify-catalog), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrfdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrfdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

// run executes one benchmark run. A check failure yields a result with
// Correct false; an error means the run could not be carried out.
func run(name string, wl workload, seed int64, d time.Duration, traced bool) (*result, error) {
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rc := &runCtx{seed: seed, seconds: d, work: work}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		rss := startRSS()
		oc, err := wl(rc)
		peak := rss.peak()
		if err != nil {
			return failedResult(err)
		}
		res.Attempted, res.Failed = oc.attempted, oc.failed
		oc.e2e["rss_peak_mb"] = peak
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: oc.e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}

	// Traced run: an untraced pass, then a pass with the layers'
	// histograms attached and spans recorded, each for half the time;
	// the difference in throughput is the tracing overhead.
	rc.seconds = d / 2
	plain, err := wl(rc)
	if err != nil {
		return failedResult(err)
	}
	rc.tr = newTracer()
	oc, err := wl(rc)
	if err != nil {
		return failedResult(err)
	}
	path, err := rc.tr.write(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "rrfdbench: %d spans written to %s\n", rc.tr.len(), path)
	oc.layer["trace.spans"] = float64(rc.tr.len())
	oc.layer["trace.overhead_ops_per_s"] = oc.e2e["ops_per_s"] - plain.e2e["ops_per_s"]
	res.Attempted = plain.attempted + oc.attempted
	res.Failed = plain.failed + oc.failed
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: oc.layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// checkError marks a failed output check, as opposed to a run that could
// not be carried out.
type checkError struct{ err error }

func (e *checkError) Error() string { return "check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func failedResult(err error) (*result, error) {
	if ce, ok := err.(*checkError); ok {
		fmt.Fprintln(os.Stderr, "rrfdbench:", ce)
		return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	return nil, err
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure: the cost metrics read 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// procLayer fills the proc.* metrics for ops operations done between a
// and b.
func procLayer(layer map[string]float64, a, b procSample, ops int64) {
	if ops <= 0 {
		return
	}
	layer["proc.cpu_ms_per_kop"] = float64(b.cpu-a.cpu) / float64(time.Millisecond) / (float64(ops) / 1000)
	layer["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
	layer["proc.gc_cycles"] = float64(b.gcs - a.gcs)
}
