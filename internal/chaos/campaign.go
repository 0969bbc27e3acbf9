package chaos

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs/hist"
	"repro/internal/par"
)

// campaignSpec is what the campaign skeleton needs from a Config or a
// RecoverConfig.
type campaignSpec struct {
	seed     int64
	runs     int
	workers  int
	observed bool           // an Observer is attached: run sequentially
	tel      *hist.Registry // receives per-run wall time under wallName
	wallName string
	out      io.Writer
}

// runCampaign is the skeleton Run and RunRecover share. It pre-draws two
// seeds per run sequentially from the campaign seed, so run i consumes
// exactly the random stream it would in a sequential campaign whatever
// order the workers execute in; fans the runs out over the workers (one
// when observed, so the event stream stays a deterministic function of
// the seed), timing each whole run into the wall-time histogram; then
// folds the outcomes in run order, printing each run's violations and
// finally sum to out. The result is independent of the worker count.
func runCampaign[T any, V fmt.Stringer](c campaignSpec, run func(i int, sched, draw int64) T, fold func(T) []V, sum fmt.Stringer) {
	rng := faultnet.NewRNG(c.seed)
	draws := make([][2]int64, c.runs)
	for i := range draws {
		draws[i][0] = int64(rng.Intn(1<<30)) + 1
		draws[i][1] = int64(rng.Intn(1<<30)) + 1
	}

	workers := par.Workers(c.workers)
	if c.observed {
		workers = 1 // serialize the observed event stream
	}
	var wall *hist.Histogram
	if c.tel != nil {
		wall = c.tel.Get(c.wallName)
	}
	outs, perr := par.Map(workers, c.runs, func(i int) T {
		if wall != nil {
			defer func(start time.Time) { wall.Record(time.Since(start).Nanoseconds()) }(time.Now())
		}
		return run(i, draws[i][0], draws[i][1])
	})
	if perr != nil {
		panic(perr) // a panicking run would abort a sequential campaign too
	}

	for _, oc := range outs {
		for _, v := range fold(oc) {
			if c.out != nil {
				fmt.Fprintf(c.out, "%s\n", v)
			}
		}
	}
	if c.out != nil {
		fmt.Fprintf(c.out, "%s\n", sum)
	}
}
