# Mirrors .github/workflows/ci.yml so local and CI invocations stay identical.

GO ?= go

.PHONY: all build vet fmt-check doccheck flexvet lint test fuzz race bench bench-record benchdiff ci

# The canonical perf-trajectory recording command (docs/BENCHMARKING.md).
# -workers 1 keeps reconfiguration counts deterministic so the file is
# byte-stable across runs.
BENCH_RECORD_FLAGS = -exp bench -scale 0.01 -workers 1 -fpgas 1 -cache-mb 64 \
	-shards 4 -shard-halo 2 -sched-jobs 4

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

doccheck:
	$(GO) run ./cmd/doccheck

# The repo's own analyzers (docs/ANALYSIS.md): determinism, device-token,
# and output-discipline invariants, machine-enforced.
flexvet:
	$(GO) run ./cmd/flexvet ./...

lint: vet fmt-check doccheck flexvet

# -shuffle=on randomizes test order so accidental inter-test coupling
# fails loudly instead of passing by luck.
test: fuzz
	$(GO) test -shuffle=on ./...

# Native fuzz smoke: each target explores for 10s on top of its committed
# seed corpus (testdata/fuzz/<FuzzName>/); any finding fails the build.
# go test allows one -fuzz pattern per invocation, hence one line per target.
fuzz:
	$(GO) test ./internal/model -run=NONE -fuzz=FuzzFlexplRoundTrip -fuzztime=10s
	$(GO) test ./internal/shard -run=NONE -fuzz=FuzzSplitStitch -fuzztime=10s

race:
	$(GO) test -shuffle=on -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Record a fresh trajectory point (stdout tables discarded; stderr kept).
bench-record:
	$(GO) run ./cmd/flexbench $(BENCH_RECORD_FLAGS) -bench-out BENCH_new.json > /dev/null

# Gate BENCH_new.json against the newest committed trajectory point:
# benchdiff reports any regression, then cmp demands byte identity, so a
# count that dropped (a fake modeled speedup) fails too. A change meant to
# move modeled numbers commits a new BENCH_N.json (docs/BENCHMARKING.md).
benchdiff: bench-record
	@latest=$$(ls BENCH_[0-9]*.json | sort -t_ -k2 -n | tail -1); \
	$(GO) run ./cmd/benchdiff -op-tol 0 $$latest BENCH_new.json && \
	if ! cmp $$latest BENCH_new.json; then \
		echo "BENCH_new.json differs from $$latest: commit it as the next BENCH_N.json if the change is meant to move modeled numbers" >&2; \
		exit 1; \
	fi

ci: build lint race fuzz bench benchdiff
