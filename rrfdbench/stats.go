package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of samples (nearest rank on the
// sorted copy); 0 for no samples.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundFigures collects each round's throughput and latency quantiles.
// The end-to-end figures are their medians across the rounds of a run,
// so one round slowed by a burst from another tenant of the machine
// moves them little.
type roundFigures struct{ rate, p50, p99 []float64 }

func (r *roundFigures) add(ops int, d time.Duration, lats []time.Duration) {
	r.rate = append(r.rate, float64(ops)/d.Seconds())
	r.p50 = append(r.p50, ms(quantile(lats, 0.50)))
	r.p99 = append(r.p99, ms(quantile(lats, 0.99)))
}

func (r *roundFigures) fill(e2e map[string]float64) {
	e2e["ops_per_s"] = medianF(r.rate)
	e2e["lat_p50_ms"] = medianF(r.p50)
	e2e["lat_p99_ms"] = medianF(r.p99)
}

// roundsFor is the number of rounds a run of length d does at
// perSec rounds a second; at least one.
func roundsFor(d time.Duration, perSec float64) int {
	n := int(d.Seconds()*perSec + 0.5)
	if n < 1 {
		return 1
	}
	return n
}

func medianF(v []float64) float64 {
	m, _, _ := quartiles(v)
	return m
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// span is one timed interval the benchmark recorded around a call into
// the program. Spans of one client request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns it; close records it.
func (t *tracer) open(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span whose interval the caller timed itself.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// rssSampler reads the process's resident set every 10 ms until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				var size, resident float64
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
					r.samples = append(r.samples, resident*page/(1<<20))
				}
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// peak stops the sampler and returns the 99th percentile of the samples:
// the peak resident set, without letting one momentary spike between
// two garbage collections set it.
func (r *rssSampler) peak() float64 {
	close(r.stop)
	<-r.done
	if len(r.samples) == 0 {
		return peakRSSMB()
	}
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	return s[int(0.99*float64(len(s)-1))]
}
