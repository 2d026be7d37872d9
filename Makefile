# Record-Boundary Discovery in Web Documents — build targets.

GO ?= go

.PHONY: all build test testshort race race-repeat shuffle cover cover-pipeline cover-eval bench bench-smoke bench-gate throughput-gate evalrun quality-gate cluster obs-smoke wrapper-smoke membership-smoke fuzz chaos experiments corpus examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

testshort:
	$(GO) test -short ./...

# The CI configuration (.github/workflows/ci.yml) runs this; the metrics
# registry and HTTP middleware are exercised concurrently by their tests.
race:
	$(GO) test -race ./...

# Repeated race runs put the metrics exposition, the pooled recognizer
# scratch, the pooled parse arenas, the LRU, the fleet router and gossip
# membership, the heuristics' lazily filled statistics, the bulk engine's
# recycled document buffers (passed between its source and emitter
# goroutines), the result cache's single flight, and the serving path's
# recycled document buffers (handed back after each reply, single-flight
# followers among them) through many interleavings before merge. CI runs
# this.
race-repeat:
	$(GO) test -race -count=5 ./internal/obs/ ./internal/recognizer/ ./internal/tagtree/ ./internal/htmlparse/ ./internal/lru/ ./internal/cluster/ ./internal/membership/ ./internal/heuristic/ ./internal/pipeline/
	$(call go_test_run,-race -count=5,Cache|Singleflight|Recycled,./internal/httpapi/)

# Shuffled double run: catches inter-test ordering dependencies and
# leftover-state bugs that a fixed order hides. CI runs this on every push.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Coverage gate for the bulk-ingestion engine: the resumability and retry
# invariants live there, so its statement coverage must stay at or above 80%.
cover-pipeline:
	$(GO) test -coverprofile=pipeline_cover.out ./internal/pipeline/
	@total=$$($(GO) tool cover -func=pipeline_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/pipeline statement coverage: $$total%"; \
	awk "BEGIN{exit !($$total >= 80.0)}" || { \
		echo "FAIL: internal/pipeline coverage $$total% is below the 80% floor"; exit 1; }

# Coverage gate for the evaluation harness: the leaderboard, the
# structural-match metric, and the quality gate decide what "no worse than
# the baseline" means, so their statement coverage must stay at or above 80%.
cover-eval:
	$(GO) test -coverprofile=eval_cover.out ./internal/eval/
	@total=$$($(GO) tool cover -func=eval_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/eval statement coverage: $$total%"; \
	awk "BEGIN{exit !($$total >= 80.0)}" || { \
		echo "FAIL: internal/eval coverage $$total% is below the 80% floor"; exit 1; }

# Full benchmark run, archived as BENCH_<n>.json (next free index) via
# cmd/benchjson so runs can be diffed across commits. CI runs the cheaper
# bench-smoke variant on every push. Raw output goes under the git-ignored
# $(BENCH_DIR) — only the distilled BENCH_<n>.json belongs in the tree.
BENCH_DIR ?= .bench
bench:
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench=. -benchmem ./... | tee $(BENCH_DIR)/bench_output.txt
	n=0; for f in BENCH_*.json; do \
		[ -e "$$f" ] || continue; \
		i=$${f#BENCH_}; i=$${i%.json}; \
		case "$$i" in *[!0-9]*) continue;; esac; \
		[ "$$i" -ge "$$n" ] && n=$$((i+1)); \
	done; \
	$(GO) run ./cmd/benchjson -in $(BENCH_DIR)/bench_output.txt -out BENCH_$$n.json && \
	echo "wrote BENCH_$$n.json"

# The one-iteration smoke CI runs: catches benchmarks that crash or hang
# without paying for a full measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# newest_numbered PREFIX names the committed PREFIX_<n>.json with the
# highest n, compared as a number (BENCH_10 is newer than BENCH_9), or
# nothing when there is none.
newest_numbered = $(shell ls $(1)_*.json 2>/dev/null | sed -n 's/^$(1)_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1 | sed 's/.*/$(1)_&.json/')

# Perf-regression gate: a fresh measurement of the core benchmarks compared
# against the newest committed BENCH_<n>.json (the highest n, compared as a
# number, as `bench` numbers new files); any benchmark more than 30%
# slower than the baseline fails (speed-ups and new benchmarks are
# informational). Each benchmark is measured 3 times and benchjson folds
# the repeats to the fastest run, so a GC cycle or scheduler hiccup landing
# inside one timed window cannot fail the gate on its own.
# BENCH_BASELINE / BENCH_TOLERANCE override the defaults.
BENCH_BASELINE ?= $(call newest_numbered,BENCH)
BENCH_TOLERANCE ?= 0.30
bench-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(BENCH_BASELINE) (tolerance $(BENCH_TOLERANCE))"
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench=. -benchmem -count=3 -run='^$$' . ./internal/core/ ./internal/heuristic/ | \
		tee $(BENCH_DIR)/bench_gate_output.txt | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# Throughput gate for the byte-level hot path: the whole-corpus MB/s
# macro-benchmark compared against the committed baseline. benchjson diffs
# SetBytes benchmarks on MB/s (payload-invariant), so corpus growth does not
# read as a regression; a real throughput loss beyond the tolerance fails.
# CI runs this as its own job — see .github/workflows/ci.yml.
throughput-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(BENCH_BASELINE) (tolerance $(BENCH_TOLERANCE))"
	mkdir -p $(BENCH_DIR)
	$(GO) test -bench='^BenchmarkCorpusThroughput$$' -benchmem -count=3 -run='^$$' . | \
		tee $(BENCH_DIR)/throughput_gate_output.txt | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# Full leaderboard run over the 220-document corpus, archived as
# QUALITY_<n>.json (next free index) — the quality counterpart of `bench`.
# Commit the new file alongside the code change that justified it.
evalrun:
	n=0; for f in QUALITY_*.json; do \
		[ -e "$$f" ] || continue; \
		i=$${f#QUALITY_}; i=$${i%.json}; \
		case "$$i" in *[!0-9]*) continue;; esac; \
		[ "$$i" -ge "$$n" ] && n=$$((i+1)); \
	done; \
	$(GO) run ./cmd/evalrun -out QUALITY_$$n.json

# Quality-regression gate: a fresh leaderboard run compared against the
# newest committed QUALITY_<n>.json; any tracked extractor whose F1 (exact
# or forgiving) dropped more than 2 absolute points fails (improvements and
# new extractors are informational). Everything is deterministic, so unlike
# bench-gate there is no noise to fold away.
# QUALITY_BASELINE / QUALITY_TOLERANCE override the defaults.
QUALITY_BASELINE ?= $(call newest_numbered,QUALITY)
QUALITY_TOLERANCE ?= 0.02
quality-gate:
	@test -n "$(QUALITY_BASELINE)" || { echo "no QUALITY_<n>.json baseline committed"; exit 1; }
	@echo "comparing against $(QUALITY_BASELINE) (tolerance $(QUALITY_TOLERANCE))"
	$(GO) run ./cmd/evalrun -compare $(QUALITY_BASELINE) -tolerance $(QUALITY_TOLERANCE)

# go_test_run FLAGS,PATTERN,PKGS runs `go test FLAGS -run 'PATTERN' PKGS`.
# `go test -run` passes silently when its pattern selects nothing, so it
# first fails unless `go test -list` names a test matching PATTERN in each
# package. Every target below that selects tests with -run goes through it.
go_test_run = for pkg in $(3); do \
		$(GO) test -list '$(2)' $$pkg | grep -q '^Test' || \
		{ echo "FAIL: -run '$(2)' selects no test in $$pkg"; exit 1; }; \
	done; \
	$(GO) test $(1) -run '$(2)' $(3)

# The fleet serving tier (see docs/SCALING.md) under the race detector:
# routing/conformance suites, the chaos scenarios (hedging, peer death,
# suspicion mid-attempt, total backend loss), and the cmd/serve boot tests
# of one gossip node and of the removed static-topology flags.
cluster:
	$(GO) test -race ./internal/cluster/
	$(call go_test_run,-race -v,TestClusterConformance,.)
	$(call go_test_run,-race,TestServeCluster,./cmd/serve/)

# Observability smoke (see docs/OBSERVABILITY.md): boots cmd/serve as one
# gossip node, makes a traced request, and checks /metrics and
# /metrics/cluster parse as Prometheus exposition, /debug/traces returns
# the request's one fragment with its routing spans, and the request is
# counted, logged and traced once — plus the trace/federation unit suites
# under -race.
obs-smoke:
	$(call go_test_run,-race -v,TestObservabilitySmoke|TestFleetNodeCountsRequestOnce,./cmd/serve/)
	$(GO) test -race ./internal/obs/
	$(call go_test_run,-race,Trace|Federat|Explain,./internal/cluster/)

# Learned-wrapper smoke (see docs/WRAPPER.md): boots cmd/serve with a
# wrapper store on disk, sends the same document twice, and checks the
# second answer came byte-identical off the template fast path — then
# restarts on the same journal and checks the wrapper survived. Plus the
# store/fingerprint unit suites and the fast-path conformance layer, all
# under -race.
wrapper-smoke:
	$(call go_test_run,-race -v,TestWrapperSmoke,./cmd/serve/)
	$(GO) test -race ./internal/template/
	$(call go_test_run,-race,TestTemplateFastPathConformance,.)

# Gossip-membership smoke (see docs/SCALING.md): boots a three-node
# gossip fleet on ephemeral ports, proves every node answers byte-identical
# to a single node, kills one node, restarts it under the same name, and
# requires it to rejoin warm — its wrapper store reloaded from its own
# journal, so the documents it owns are answered off the template fast path
# without a single template miss. Plus the membership unit suite and the
# root churn-conformance layer, all under -race.
membership-smoke:
	$(call go_test_run,-race -v,TestMembershipSmoke,./cmd/serve/)
	$(GO) test -race ./internal/membership/
	$(call go_test_run,-race,TestChurn,.)

# Brief fuzz sessions over every fuzz target (seeds always run under `test`).
fuzz:
	$(GO) test -fuzz='^FuzzTokenize$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzTokenizeXML$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzDecodeEntities$$' -fuzztime=30s ./internal/htmlparse/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzParseXML$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzByteVsStringParse$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzCollapsedLen$$' -fuzztime=30s ./internal/tagtree/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/ontology/
	$(GO) test -fuzz='^FuzzScanPlan$$' -fuzztime=30s ./internal/recognizer/
	$(GO) test -fuzz='^FuzzFieldCounts$$' -fuzztime=30s ./internal/recognizer/
	$(GO) test -fuzz='^FuzzDiscoverRequest$$' -fuzztime=30s ./internal/httpapi/
	$(GO) test -fuzz='^FuzzEnvelope$$' -fuzztime=30s ./internal/pipeline/
	$(GO) test -fuzz='^FuzzWireEncoding$$' -fuzztime=30s ./internal/pipeline/
	$(GO) test -fuzz='^FuzzFingerprintDoc$$' -fuzztime=30s ./internal/template/
	$(GO) test -fuzz='^FuzzStatsPass$$' -fuzztime=30s ./internal/heuristic/
	$(GO) test -fuzz='^FuzzJournalCrash$$' -fuzztime=30s ./internal/journal/

# The fault-injection chaos suite (see docs/ROBUSTNESS.md) under the race
# detector: isolated heuristic panics, mid-batch cancellation, load
# shedding, resource limits, recognizer chunk faults, and singleflight
# dedup.
chaos:
	$(call go_test_run,-race -v,TestChaos,./internal/httpapi/)
	$(call go_test_run,-race,Panic|Canceled|Fault|Limits,./internal/core/ ./internal/tagtree/ ./internal/recognizer/)

# Regenerate every table of the paper, plus quality, scaling, and the
# threshold ablation.
experiments:
	$(GO) run ./cmd/experiments -scaling -ablation

corpus:
	$(GO) run ./cmd/gencorpus -out corpus

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/obituaries
	$(GO) run ./examples/carads
	$(GO) run ./examples/jobads
	$(GO) run ./examples/courses
	$(GO) run ./examples/xmlfeed

clean:
	rm -rf corpus cover.out pipeline_cover.out eval_cover.out test_output.txt bench_output.txt $(BENCH_DIR)
