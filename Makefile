# ehjoin build and verification entry points. `make lint` mirrors the CI
# pre-merge gate; staticcheck and govulncheck run only when installed, so
# the target works offline with just the Go toolchain.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint lint-json fmt vet ehjalint staticcheck govulncheck fuzz bench bench-aa bench-pair clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate: formatting, vet, the in-tree invariant suite,
# then the optional external analyzers.
lint: fmt vet ehjalint staticcheck govulncheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The in-tree invariant suite (internal/lint): determinism, channel
# discipline, no blocking under a lock, report-counter sync, WAL
# log-before-act ordering, and the conservation ledger — each proved by a
# mutant of the real tree that only it catches (go test ./internal/lint). -v prints the //lint:allow suppressions so
# exceptions stay auditable; CHECKS=walorder,ledger runs a subset.
ehjalint:
	$(GO) run ./cmd/ehjalint -v $(if $(CHECKS),-checks $(CHECKS)) ./...

# Machine-readable findings (the CI annotation feed): same suite, same
# CHECKS filter, JSON on stdout.
lint-json:
	$(GO) run ./cmd/ehjalint -json $(if $(CHECKS),-checks $(CHECKS)) ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs the pinned version)"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs the pinned version)"; fi

# Short fuzz sessions over the wire codecs: the message registry, the
# checkpoint records, the chunk layout, the protocol messages and frames;
# then the match-fold kernel against its per-pair definition, and the
# join-node table's operations against its map model.
fuzz:
	$(GO) test -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzDecodeBinary -fuzztime $(FUZZTIME) -run '^$$' ./internal/tuple/
	$(GO) test -fuzz FuzzDecodeCoreMessage -fuzztime $(FUZZTIME) -run '^$$' ./internal/core/
	$(GO) test -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) -run '^$$' ./internal/tcpnet/
	$(GO) test -fuzz FuzzMixRun -fuzztime $(FUZZTIME) -run '^$$' ./internal/tuple/
	$(GO) test -fuzz FuzzTableOps -fuzztime $(FUZZTIME) -run '^$$' ./internal/hashtable/

# The repository's one benchmark (bench/README.md): every workload end to
# end over real worker processes, then traced; results in bench/out/.
bench:
	$(GO) run ./bench -seed 1

# A/A check: two end-to-end sets back to back, compared against the bounds
# BENCHMARK.json fixes — run it before trusting a before/after pair on a
# new host.
bench-aa:
	$(GO) run ./bench -aa

# Before/after comparison of one workload against a git ref: N alternating
# pairs of the driver's 20 s runs, every pair printed, then wins, medians
# and quartiles per end-to-end metric (scripts/bench-pair.sh). What a perf
# claim is measured with:  make bench-pair BASE=HEAD~1 W=uniform_fit N=10 SEED=1
# (W=zipf_heavy for a per-match cost claim, where cost is output;
# W=spill_wal for the spill rung: eviction, spilled streams, finish phase)
BASE ?= HEAD
W ?= uniform_fit
N ?= 10
SEED ?= 1
bench-pair:
	./scripts/bench-pair.sh $(BASE) $(W) $(N) $(SEED)

clean:
	$(GO) clean ./...
