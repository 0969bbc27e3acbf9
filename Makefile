# Build, test and benchmark entry points. `make ci` is what the CI
# workflow runs; `make bench` regenerates BENCH_core.json, the committed
# performance baseline every perf PR diffs against.

GO ?= go

# Engine + agreement + chaos-campaign + TCP-substrate + service
# benchmarks tracked in BENCH_core.json.
BENCH_PKGS := ./internal/core ./internal/agreement ./internal/chaos ./internal/netsub ./internal/serve ./internal/fleet ./internal/wal
BENCH_PAT  ?= .

.PHONY: build test race vet ci bench bench-check bench-module chaos-short chaos recovery-short mc-short mc-cover hoalg-short telemetry-short net-short serve-short fleet-short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

ci: vet build race bench-module chaos-short recovery-short mc-short mc-cover hoalg-short telemetry-short net-short serve-short fleet-short

# The benchmark harness is its own Go module (rrfdbench/go.mod, replacing
# repro with ../), so the root `go test ./...` neither builds nor tests it:
# vet and test it here, so an API break in chaos, serve or mc fails CI
# rather than the next benchmark run.
bench-module:
	cd rrfdbench && $(GO) vet ./... && $(GO) test ./...

# Fixed-seed, small-N fault-injection campaigns under the race detector:
# quick enough for every CI run, loud on any safety violation (the chaos
# binary exits non-zero and prints seed + minimized fault plan).
chaos-short:
	$(GO) run -race ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 25 -drop 0.3 -seed 7
	$(GO) run -race ./cmd/rrfdsim -chaos -n 5 -f 1 -k 2 -runs 15 -seed 21 \
		-drop 0.3 -dup 0.3 -delay 0.4 -omit 0.4 -partition 0.5 -crashes 1

# Fixed-seed crash-recovery campaigns plus a kill-and-resume round trip,
# all under the race detector: every run crashes at least one process and
# audits safety; the resumed execution must match the journal or rrfdsim
# exits non-zero with a divergence error.
recovery-short:
	$(GO) run -race ./cmd/rrfdsim -chaos-recover -n 5 -f 1 -runs 25 -seed 42
	$(GO) run -race ./cmd/rrfdsim -chaos-recover -n 5 -f 1 -runs 15 -seed 7 \
		-drop 0.15 -delay 0.2
	dir=$$(mktemp -d)/ck && \
	$(GO) run -race ./cmd/rrfdsim -system crash -alg floodmin -n 8 -f 3 -seed 5 \
		-checkpoint $$dir -kill-after 1 && \
	$(GO) run -race ./cmd/rrfdsim -system crash -alg floodmin -n 8 -f 3 -seed 5 \
		-resume $$dir && rm -rf $${dir%/ck}

# Fixed-seed model-checking runs under the race detector: exhaustive
# exploration of small instances for three model families, a bounded
# sampled run, and the planted wrong-quorum bug — which MUST fail with its
# known one-choice counterexample (the ! inverts the expected exit 1).
mc-short:
	$(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -workers 4
	$(GO) run -race ./cmd/rrfdsim -mc -system omission -n 3 -f 1 -alg floodmin -rounds 3
	$(GO) run -race ./cmd/rrfdsim -mc -system crash -n 3 -f 1 -alg floodmin -rounds 2 -mc-depth 1
	! $(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug
	$(GO) run -race ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug -mc-replay c1:4; \
		test $$? -eq 1

# Coverage floor for the model-checking engine: the subsystem exists to
# find other packages' bugs, so its own statements stay >= 85% covered.
mc-cover:
	$(GO) test -cover ./internal/mc/ | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") c = substr($$(i+1), 1, length($$(i+1))-1); \
		print } END { \
		if (c + 0 < 85) { print "internal/mc coverage " c "% below 85% floor"; exit 1 } }'

# Model-algebra gate: the differential suites (compiled vs bespoke
# checkers, compiled vs bespoke enumerators, fuzz seed corpus, chaos
# closure) under the race detector, one -model smoke per run mode, and a
# coverage floor on the compiler package itself.
hoalg-short:
	$(GO) test -race -count=1 ./internal/hoalg/ ./internal/adversary/
	$(GO) run -race ./cmd/rrfdsim -model sync-crash -n 3 -f 1 -alg none -rounds 3
	$(GO) run -race ./cmd/rrfdsim -mc -model 'kset(2) | perround(1)' -n 3 -f 1 -k 2 -alg qkset
	$(GO) run -race ./cmd/rrfdsim -chaos -model async -n 5 -f 1 -k 2 -runs 10 -rounds 3 -seed 7
	$(GO) test -cover ./internal/hoalg/ | awk '{ \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") c = substr($$(i+1), 1, length($$(i+1))-1); \
		print } END { \
		if (c + 0 < 85) { print "internal/hoalg coverage " c "% below 85% floor"; exit 1 } }'

# Telemetry smoke under the race detector: a single run writes a Perfetto
# trace and a metrics snapshot; the planted-bug chaos campaign must fail
# (the leading ! inverts the expected exit 1) AND replay its first
# violation into a trace; both files must be non-empty.
telemetry-short:
	dir=$$(mktemp -d) && \
	$(GO) run -race ./cmd/rrfdsim -system kset -k 2 -n 6 -alg kset -seed 3 \
		-metrics -perfetto $$dir/run.json && \
	test -s $$dir/run.json && \
	! $(GO) run -race ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 60 -seed 13 \
		-drop 1.0 -omit 0.8 -partition 0.6 -watchdog 300 -bug \
		-perfetto $$dir/chaos.json && \
	test -s $$dir/chaos.json && rm -rf $$dir

# Real-network smoke under the race detector: the loopback TCP substrate
# tests (peer pool, backpressure, eviction, chaos proxy, cross-validation
# against the virtual injector) plus the multi-process run — one OS
# process per pid over inherited listeners, the highest pid killed and
# restarted mid-run, decisions audited for validity and k-agreement.
net-short:
	$(GO) test -race -count 1 ./internal/netsub/
	$(GO) run -race ./cmd/rrfdsim -substrate tcp -n 4 -f 1 -k 2 -rounds 3 -watchdog 600

# Agreement-service smoke under the race detector: the service package
# tests (durable instances, admission control, retry discipline), an
# in-process load-generator run with its idempotency/validity/k-agreement
# audit, the fixed-seed kill-and-recover campaign, and the same campaign
# with the planted ack-before-journal bug — which MUST fail on the lost
# acked decision (the leading ! inverts the expected exit 1).
serve-short:
	$(GO) test -race -count 1 ./internal/serve/
	$(GO) run -race ./cmd/rrfdload -local 3 -f 1 -clients 6 -requests 10 -seed 7
	$(GO) run -race ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -k 2 -seed 7
	! $(GO) run -race ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -k 2 -seed 7 -bug

# Engine-fleet smoke under the race detector: the fleet package tests
# (shard × worker determinism grid, repartitioned crash/resume, protocol
# audit) plus a pooled-connection scale run of the load generator — many
# virtual clients multiplexed over a bounded connection pool against a
# sharded local cluster, audits clean.
fleet-short:
	$(GO) test -race -count 1 ./internal/fleet/
	$(GO) run -race ./cmd/rrfdload -local 3 -f 1 -clients 2000 -conns 8 \
		-requests 1 -instances 256 -seed 7

# The larger sweep: every fault class, more seeds, more runs.
chaos:
	$(GO) run ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 500 -drop 0.3 -seed 7
	$(GO) run ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 300 -seed 21 \
		-drop 0.3 -dup 0.3 -delay 0.4 -omit 0.4 -partition 0.5 -crashes 2
	$(GO) run ./cmd/rrfdsim -chaos -n 8 -f 3 -k 4 -runs 200 -seed 5 \
		-drop 0.4 -delay 0.4 -partition 0.4 -crashes 3

# -count 3: the gate compares per-name ns/op minima, and min-of-3 irons
# out scheduler and fsync noise that a single run leaves in.
BENCH_COUNT ?= 3

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchstatjson -o BENCH_core.json

# The regression gate: rerun the tracked benchmarks and diff against the
# committed baseline; fails on >20% ns/op or allocs/op regressions. Refresh
# the baseline with `make bench` when a perf change is intentional.
# ServeDecide/throughput carries no allocs_per_op in the baseline (alloc
# gating skips entries missing it on either side): client retries under
# CPU contention make its alloc count noisy while ns/op stays stable, so
# re-drop that field after regenerating the baseline.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchstatjson -compare BENCH_core.json
