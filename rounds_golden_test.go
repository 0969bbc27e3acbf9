package rrfd_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/immediate"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// renderRounds prints everything a round runner reports about one
// execution: the induced trace, the scheduler's crashed set and every
// process's per-round views.
func renderRounds(b *strings.Builder, name string, n int, trace *core.Trace, crashed core.Set, views map[core.PID][]map[core.PID]core.Value) {
	fmt.Fprintf(b, "== %s\n%scrashed=%s\n", name, trace, crashed)
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "p%d views=%v\n", i, views[core.PID(i)])
	}
}

// TestRoundRunnersGolden pins the trace, crashed set and views that the
// four virtual round runners produce at one fixed seed each — the
// unreliable-network protocol, the reliable-link protocol under drops and
// a healing partition and a crash, and the snapshot and immediate-snapshot protocols under a
// scheduler crash — against testdata/rounds_golden.txt. Rewrite the file
// with `go test -run TestRoundRunnersGolden -update` only when a change
// to the executions is intended.
func TestRoundRunnersGolden(t *testing.T) {
	var b strings.Builder

	mout, err := msgnet.RunRounds(5, 2, 3, msgnet.Config{
		Chooser: msgnet.Seeded(11),
		Crash:   map[core.PID]int{4: 7},
	}, nil)
	if err != nil {
		t.Fatalf("msgnet: %v", err)
	}
	renderRounds(&b, "msgnet n=5 f=2 seed=11 crash p4@7", 5, mout.Trace, mout.Crashed, mout.Views)
	fmt.Fprintf(&b, "steps=%d\n", mout.Steps)

	plan := faultnet.Plan{Seed: 3, Components: []faultnet.Component{
		{Kind: faultnet.Drop, Rate: 0.4},
		{Kind: faultnet.Partition, Groups: [][]core.PID{{0, 1}, {2, 3}}, Until: 250},
	}}
	rout, rep, err := reliablelink.RunRounds(4, 1, 3, reliablelink.RoundsConfig{
		Net: msgnet.Config{
			Chooser: msgnet.Seeded(5),
			Crash:   map[core.PID]int{3: 30},
			Faults:  plan.Injector(),
		},
		WatchdogSteps: 150,
		LingerSteps:   100,
	}, nil)
	if err != nil {
		t.Fatalf("reliablelink: %v", err)
	}
	renderRounds(&b, "reliablelink n=4 f=1 seed=5 drop(40%) split [0,250) crash p3@30", 4, rout.Trace, rout.Crashed, rout.Views)
	fmt.Fprintf(&b, "%s\n", rep)

	sout, err := snapshot.RunRounds(4, 1, 3, swmr.Config{
		Chooser: swmr.Seeded(3),
		Crash:   map[core.PID]int{2: 6},
	}, nil)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	renderRounds(&b, "snapshot n=4 f=1 seed=3 crash p2@6", 4, sout.Trace, sout.Crashed, sout.Views)

	iout, err := immediate.RunRounds(4, 3, swmr.Config{
		Chooser: swmr.Seeded(9),
		Crash:   map[core.PID]int{1: 5},
	}, nil)
	if err != nil {
		t.Fatalf("immediate: %v", err)
	}
	renderRounds(&b, "immediate n=4 seed=9 crash p1@5", 4, iout.Trace, iout.Crashed, iout.Views)

	path := filepath.Join("testdata", "rounds_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("round runner output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
	}
}
