GO ?= go

.PHONY: all fmt vet build test race check lint bench gobench bench-smoke bench-e2e-smoke bench-compare bench-profile tables api api-check serve-smoke

all: check

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet.  Gated on the binary being present so
# offline checkouts still pass `make check`; CI installs a pinned
# staticcheck and runs it unconditionally (see .github/workflows).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./...; \
	else \
	  echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI gate: formatting, static analysis, build, race-enabled tests,
# and the recorded public-API surface.
check: fmt vet lint build race api-check

# Snapshot the public API surface (every exported symbol of the facade
# package, as `go doc -all` renders it) into api.txt.  Rerun after an
# intentional API change and commit the diff — the snapshot makes API
# changes show up in review as api.txt hunks instead of silently.
api:
	$(GO) doc -all . > api.txt

# Fail if the current public API no longer matches the recorded
# snapshot (run `make api` and commit api.txt if the change is meant).
api-check:
	@$(GO) doc -all . | diff -u api.txt - || { \
	  echo "public API drifted from api.txt; run 'make api' and commit if intended"; exit 1; }

# Stamped-store microbenchmark (atomic baseline vs sharded vs batched),
# the misspeculation-recovery benchmark (partial commit vs full
# restore), the pipelined-pool strip benchmark (persistent pool +
# overlapped strips vs spawn-per-strip), the adaptive-selector
# benchmark (defaulted Options vs a hand-tuned grid), and the
# journal-layout A/B benchmark (packed block journal vs the element
# oracle), recorded as machine-readable JSON baselines.  BENCH_8 runs
# at a strip-sized, cache-resident working set (16K elements): the
# engines track strip-sized ranges, and at BENCH_2's 1M-element
# streaming shape a 1-core host measures metadata DRAM bandwidth, not
# the store fast path the layout targets.  BENCH_9 is the
# validation-tier benchmark (Tier-1 signatures and Tier-2 trusted
# strips vs the Tier-0 element-wise oracle); it pins -sigwork so the
# workload shape — which the regression guard's regime gate keys on —
# is identical between the recorded baseline and the compare run.
bench:
	$(GO) run ./cmd/whilebench -membench -json -procs 8 > BENCH_2.json
	@cat BENCH_2.json
	$(GO) run ./cmd/whilebench -recbench -json -procs 8 > BENCH_3.json
	@cat BENCH_3.json
	$(GO) run ./cmd/whilebench -pipebench -json -procs 8 > BENCH_4.json
	@cat BENCH_4.json
	$(GO) run ./cmd/whilebench -pipebench -json -procs 8 -pipework 0 > BENCH_6.json
	@cat BENCH_6.json
	$(GO) run ./cmd/whilebench -autobench -json -procs 8 > BENCH_7.json
	@cat BENCH_7.json
	$(GO) run ./cmd/whilebench -journalbench -json -procs 8 -elems 16384 -rounds 2048 > BENCH_8.json
	@cat BENCH_8.json
	$(GO) run ./cmd/whilebench -sigbench -json -procs 8 -sigwork 300 > BENCH_9.json
	@cat BENCH_9.json

# A fast variant for CI smoke: small workload, human-readable.
bench-smoke:
	$(GO) run ./cmd/whilebench -membench -procs 8 -elems 65536 -rounds 8
	$(GO) run ./cmd/whilebench -recbench -procs 8 -iters 20000 -work 200
	$(GO) run ./cmd/whilebench -pipebench -procs 8 -pipeiters 8192 -pipework 100
	$(GO) run ./cmd/whilebench -autobench -procs 8 -autoiters 8000 -autowork 100
	$(GO) run ./cmd/whilebench -journalbench -procs 8 -elems 65536 -rounds 8
	$(GO) run ./cmd/whilebench -sigbench -procs 8 -sigiters 8192 -sigwork 100

# Smoke test of the end-to-end benchmark (BENCHMARK.json).  benchmark/
# is a module of its own, invisible to the root `go test ./...`, so
# nothing else vets it or runs its test.
bench-e2e-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -short .

# Regression guard: rerun the benchmarks and fail if a machine-
# independent ratio fell more than 20% below the recorded baseline.
bench-compare:
	$(GO) run ./cmd/whilebench -membench -procs 8 -baseline BENCH_2.json -tol 0.2
	$(GO) run ./cmd/whilebench -recbench -procs 8 -iters 20000 -work 200 -baseline BENCH_3.json -tol 0.2
	$(GO) run ./cmd/whilebench -pipebench -procs 8 -pipeiters 8192 -pipework 200 -baseline BENCH_4.json -tol 0.2
	$(GO) run ./cmd/whilebench -pipebench -procs 8 -pipework 0 -baseline BENCH_6.json -tol 0.2
	$(GO) run ./cmd/whilebench -autobench -procs 8 -baseline BENCH_7.json -tol 0.2
	$(GO) run ./cmd/whilebench -journalbench -procs 8 -elems 16384 -rounds 2048 -baseline BENCH_8.json -tol 0.2
	$(GO) run ./cmd/whilebench -sigbench -procs 8 -sigwork 300 -baseline BENCH_9.json -tol 0.2

# Profile-first entry point for hot-path work: pprof CPU and heap
# profiles of the calibrated pipelined benchmark, ready for
# `go tool pprof cpu.pb.gz` / `go tool pprof mem.pb.gz`.
bench-profile:
	$(GO) run ./cmd/whilebench -pipebench -procs 8 -pipework 0 \
	  -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
	@echo "profiles written: cpu.pb.gz mem.pb.gz"

gobench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end service smoke: boot whilepard in-process, submit a .while
# job and a native job over HTTP, wait for both, scrape /metrics.
serve-smoke:
	$(GO) run ./cmd/whilepard -smoke

tables:
	$(GO) run ./cmd/whilebench -all
