# Reproduction harness shortcuts. Everything is plain `go` underneath.

GO ?= go

.PHONY: all test vet check fuzz-smoke bench bench-smoke bench-shards mem-smoke chaos-smoke race-sweep race-shards serve-smoke live-smoke compose-smoke cluster-smoke figures report scf clean

all: vet test

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short mode skips the multi-minute paper-scale integration runs.
test-short:
	$(GO) test -short ./...

# CI gate: vet plus the short suite under the race detector (the fault
# package rides along in ./...; listed explicitly so a package-selection
# change can't silently drop it from the -race run).
check:
	$(GO) vet ./...
	$(GO) test -short -race ./internal/fault/ ./...

# Short fuzz gate, 20 s per fuzzer, each starting from its committed
# seed corpus under the package's testdata/fuzz/: FuzzRegionCache (sparse
# region cache vs the dense oracle), then the append-based obs encoders
# vs their fmt/encoding/json oracles (FuzzChromeEventLine: trace lines,
# FuzzSnapshotJSON: metrics snapshots).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRegionCache$$' -fuzztime 20s ./internal/armci/
	$(GO) test -run '^$$' -fuzz '^FuzzChromeEventLine$$' -fuzztime 20s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotJSON$$' -fuzztime 20s ./internal/obs/

# Engine wall-clock benchmarks (the cost of simulating): micro benches
# plus the reduced Fig 9 p=4096 / SCF scenarios, written to
# BENCH_sim.json — the committed baseline every perf PR is compared
# against. The second line runs the per-figure paper benches.
bench:
	$(GO) run ./cmd/simbench -out BENCH_sim.json
	$(GO) test -bench=. -benchmem -benchtime=1x .

# CI gate for the engine: micro benches only; exits non-zero when a
# zero-allocation invariant (kernel At/Run, thread switch, network
# Send) regresses.
# The second block checks a figure sweep renders byte-identically whether
# it runs serial or across 4 sweep workers; the third does the same for
# intra-run lane workers (1 shard vs 4 shards). The legacy single-queue
# engine (armci.Config.Shards -1) is a test reference with no CLI flag:
# it breaks same-timestamp ties by global insertion order instead of the
# lane engine's canonical order, which can shift a mean by ~0.01 us at
# some scales, so TestLegacyEngineEquivalence pins it at outcome level.
bench-smoke:
	$(GO) run ./cmd/simbench -smoke -out ''
	$(GO) run ./cmd/armci-bench -fig 9 -quick -csv -parallel 1 > /tmp/fig9-p1.csv
	$(GO) run ./cmd/armci-bench -fig 9 -quick -csv -parallel 4 > /tmp/fig9-p4.csv
	cmp /tmp/fig9-p1.csv /tmp/fig9-p4.csv
	@echo "parallel sweep determinism OK"
	$(GO) run ./cmd/armci-bench -fig 9 -quick -csv -shards 1 > /tmp/fig9-s1.csv
	$(GO) run ./cmd/armci-bench -fig 9 -quick -csv -shards 4 > /tmp/fig9-s4.csv
	cmp /tmp/fig9-p1.csv /tmp/fig9-s1.csv
	cmp /tmp/fig9-s1.csv /tmp/fig9-s4.csv
	@echo "intra-run shard determinism OK"

# World-memory gate: one p=16384 Fig 9 world end to end, failing if the
# test process's peak resident memory (VmHWM) exceeds 2 GB. Per-rank
# state is O(σ + touched peers), so this stays a few hundred MB; a dense
# per-peer layout needs more than 7 GB at this size.
mem-smoke:
	$(GO) test -count=1 -run '^TestBigWorld$$' -bigworld -v .

# Chaos determinism gate: the scripted-fault profile run twice with the
# same seed must emit byte-identical tables (same event count, same final
# virtual time, same recovery counters) — at the default worker count,
# fully serial, and across 4 sweep workers.
chaos-smoke:
	$(GO) run ./cmd/armci-bench -chaos -quick > /tmp/chaos1.txt
	$(GO) run ./cmd/armci-bench -chaos -quick > /tmp/chaos2.txt
	cmp /tmp/chaos1.txt /tmp/chaos2.txt
	$(GO) run ./cmd/armci-bench -chaos -quick -parallel 1 > /tmp/chaos-p1.txt
	cmp /tmp/chaos1.txt /tmp/chaos-p1.txt
	$(GO) run ./cmd/armci-bench -chaos -quick -parallel 4 > /tmp/chaos-p4.txt
	cmp /tmp/chaos1.txt /tmp/chaos-p4.txt
	@echo "chaos determinism OK"

# Parallel-sweep race gate: concurrent whole-simulation isolation and
# worker-count invariance under the race detector.
race-sweep:
	$(GO) test -race -run 'TestSweep|TestConcurrent' .

# Intra-run shard race gate: the lane pool, parallel boundary (staged
# deposit apply), and cross-lane deposit path under the race detector —
# the shard x lane-group invariance matrix, the serial-boundary oracle
# equivalence, legacy-engine equivalence, and two sharded worlds running
# concurrently — plus the sim package's own lane engine and horizon-tree
# tests. Lane group and serial boundary are test-only armci.Config
# fields; the tests set them through sweep.Ctx literals.
race-shards:
	$(GO) test -race -run 'TestShard|TestLegacyEngine|TestFig9LaneGroup|TestChaosLaneGroup|TestComposedLaneGroup|TestBoundaryOracle' .
	$(GO) test -race -run 'TestLane|TestHorizon|TestPopUpTo|TestMarkDirty' ./internal/sim/

# Shard scaling gate: times the fig9 p=16384 scenario serial vs sharded
# (GOMAXPROCS logged), after asserting byte-identical results. On a
# multi-core runner, fails if the sharded run is >10% slower than
# serial; single-core hosts report and pass (lane workers can only add
# overhead there, which is exactly what the run records).
bench-shards:
	sh scripts/bench-shards.sh

# Serving-layer gate: start simd, drive it with simload (0 errors, cache
# hits on the skewed phase, cached bytes identical to cold), then assert
# SIGTERM drains gracefully.
serve-smoke:
	sh scripts/serve-smoke.sh

# Live observability gate: a slow chaos sweep submitted asynchronously,
# with two SSE clients attaching at different times — both must
# reconstruct byte-identical artifacts (late attach replays the event
# log); every cold simload key streamed with -attach must match its
# synchronous bytes; SIGTERM must drain attached streams cleanly.
live-smoke:
	sh scripts/live-smoke.sh

# Composition gate: a two-phase composed spec (halo + faulted fetchadd)
# posted to fresh simd servers at every workers x shards combination in
# {1,4} x {1,4} — cold vs cached bytes identical per server, artifacts
# identical across all servers, and the offline `armci-bench -compose`
# render identical to what the servers cached.
compose-smoke:
	sh scripts/compose-smoke.sh

# Cluster gate: a 3-replica simnet cluster under skewed simload with the
# hot key's owner SIGKILLed mid-run — zero failed requests after
# retries, every byte identical to a solo cold run, peer fills and
# proxied jobs observed on the survivors — then a restart over a
# survivor's store directory serving its keys from disk (disk_hits > 0)
# byte-identical via /v1/results/{hash}.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# Regenerate every figure/table at full scale into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/tables | tee results/tables.txt
	$(GO) run ./cmd/armci-bench | tee results/microbench.txt

# Fig 11 at paper scale (slow: ~10 min/point on one core).
scf:
	mkdir -p results
	$(GO) run ./cmd/scf -procs 1024,2048,4096 -iters 1 | tee results/fig11.txt

# One-minute reduced-scale audit of the whole reproduction, plus the
# aggregated metrics dump (render with `go run ./cmd/obs-report`).
report:
	mkdir -p results
	$(GO) run ./cmd/report -metrics results/metrics.txt | tee results/report.md

clean:
	rm -rf results
