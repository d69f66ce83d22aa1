# Development targets; `make check` is the CI gate.

GO ?= go

.PHONY: check build fmt vet staticcheck test race chaos fuzz fuzz-wire bench bench-index bench-serve bench-replica bench-mvcc benchgo perfbench-test

check: build fmt vet staticcheck race perfbench-test

build:
	$(GO) build ./...

# Every Go file in the tree, perfbench included, must be gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files above need formatting"; exit 1; }

vet:
	$(GO) vet ./...

# staticcheck when the binary is available; CI and dev machines without
# it skip rather than fail (no module dependency is added).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench is a separate module (it imports this one through a replace
# directive), so `go test ./...` at the root never builds it; its smoke
# tests run each workload briefly with its answer check on.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The jepsen-lite failover suite under the race detector: five seeded
# network-chaos schedules (partitions, latency, mid-message cuts,
# promotion of a replica while the old primary still takes writes) plus
# a deliberately un-fenced run that must trip the dual-primary check.
# Set CHAOS_SEED to replay one schedule; set CHAOS_HISTORY_DIR to dump
# per-schedule operation histories (CI uploads them on failure).
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/chaosnet

# Short exploratory fuzz pass over the session executor (seeded from
# internal/engine/testdata/fuzz).
fuzz:
	$(GO) test ./internal/engine -fuzz FuzzSessionExec -fuzztime 30s

# Fuzz the wire-protocol decoder (seeded with every message type,
# replication kinds included, plus malformed frames).
fuzz-wire:
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime 30s

# Reproducible throughput/latency harnesses: concurrent masked retrieval
# (BENCH_parallel.json, cmd/authdb/bench.go) and index-accelerated
# evaluation (BENCH_index.json, cmd/authdb/bench_index.go).
bench:
	$(GO) run ./cmd/authdb bench
	$(GO) run ./cmd/authdb bench-index

# The index/pushdown workloads alone.
bench-index:
	$(GO) run ./cmd/authdb bench-index

# End-to-end network-server throughput/latency at 1/16/64 concurrent
# client connections, reads plus durable writes with and without group
# commit (BENCH_serve.json, cmd/authdb/benchserve.go).
bench-serve:
	$(GO) run ./cmd/authdb bench-serve

# Replicated read scaling: masked-read qps against 0/2/4 replicas
# under a steady primary write load, with observed replication lag
# (BENCH_replica.json, cmd/authdb/benchreplica.go).
bench-replica:
	$(GO) run ./cmd/authdb bench-replica

# MVCC read-scaling matrix: the bench-serve read mix and the replicated
# topology rerun at GOMAXPROCS 1/4/16, each level stamped with its
# effective GOMAXPROCS (BENCH_mvcc.json, cmd/authdb/benchmvcc.go).
bench-mvcc:
	$(GO) run ./cmd/authdb bench-mvcc

# Go testing.B micro-benchmarks.
benchgo:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
