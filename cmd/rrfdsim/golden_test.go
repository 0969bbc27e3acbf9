package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestChaosGolden pins the exact output of four fixed-seed -chaos
// campaigns — the two chaos-short runs, the hoalg-short model run and the
// telemetry-short planted-bug run — against testdata/chaos_golden.txt.
// Each campaign contributes what the CLI writes: its stdout, then its
// error line (stderr) when it fails. The file was produced by the
// command-line binary, so any change to the round protocol, the reliable
// link, the fault injector or the report format shows up here as a diff
// rather than only as a same-build determinism check.
func TestChaosGolden(t *testing.T) {
	// The flag defaults of main for the fields the campaigns leave unset.
	base := func() config {
		return config{system: "kset", alg: "kset", snapEvery: 2, netIncarnation: 1,
			substrate: "virtual", chaos: true}
	}
	campaigns := []func(c *config){
		func(c *config) { c.n, c.f, c.k, c.runs, c.drop, c.seed = 6, 2, 3, 25, 0.3, 7 },
		func(c *config) {
			c.n, c.f, c.k, c.runs, c.seed = 5, 1, 2, 15, 21
			c.drop, c.dup, c.delay, c.omit, c.partition, c.crashes = 0.3, 0.3, 0.4, 0.4, 0.5, 1
		},
		func(c *config) { c.model, c.n, c.f, c.k, c.runs, c.rounds, c.seed = "async", 5, 1, 2, 10, 3, 7 },
		func(c *config) {
			c.n, c.f, c.k, c.runs, c.seed = 6, 2, 3, 60, 13
			c.drop, c.omit, c.partition, c.watchdog, c.bug = 1.0, 0.8, 0.6, 300, true
		},
	}
	var got bytes.Buffer
	for _, set := range campaigns {
		cfg := base()
		set(&cfg)
		if err := run(cfg, &got); err != nil {
			got.WriteString(err.Error() + "\n")
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chaos_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("chaos campaign output drifted from testdata/chaos_golden.txt:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
