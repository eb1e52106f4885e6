GO ?= go

.PHONY: all fmt vet build test race check lint orphans bench gobench bench-e2e-smoke tables api api-check serve-smoke

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
# the recorded public-API surface, no orphaned internal package, and
# the nested benchmark module (which `go build ./...` cannot see) still
# building against this tree.
check: fmt vet lint build race api-check orphans bench-e2e-smoke

# Fail when an internal package is reachable from none of the things
# the module ships (the facade, the commands, the examples): such a
# package is kept alive only by its own tests.
orphans: SHELL := bash
orphans:
	@out="$$(comm -13 \
	  <($(GO) list -deps . ./cmd/... ./examples/... | grep '^whilepar/internal/' | sort -u) \
	  <($(GO) list ./internal/... | sort))"; \
	if [ -n "$$out" ]; then echo "internal packages with no importer:"; echo "$$out"; exit 1; fi

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

# The one benchmark entry point: the end-to-end + per-layer benchmark
# BENCHMARK.json declares (see benchmark/README.md).
bench:
	bash benchmark/run.sh

# Smoke test of the end-to-end benchmark (BENCHMARK.json).  benchmark/
# is a module of its own, invisible to the root `go test ./...`, so
# nothing else vets it or runs its test.
bench-e2e-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -short .

gobench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end service smoke: boot whilepard in-process, submit a .while
# job and a native job over HTTP, wait for both, scrape /metrics.
serve-smoke:
	$(GO) run ./cmd/whilepard -smoke

tables:
	$(GO) run ./cmd/whilebench -all
