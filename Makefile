# GradSec reproduction — build/test/bench entry points.
#
#   make build        compile everything
#   make vet          static checks
#   make test         full test suite, race detector enabled
#   make fuzz-check   run the fuzz corpora in regression mode (no fuzzing)
#   make fuzz-smoke   fuzz every Fuzz* target for 5 s each (CI, after check)
#   make bench        all artefact + fleet benchmarks (one iteration each)
#   make bench-fleet  fixed-benchtime fleet benchmarks -> bench/fleet.txt
#   make bench-secagg secagg privacy-ladder benchmarks -> bench/secagg.txt
#   make bench-hier   hierarchical fan-in benchmarks   -> bench/hier.txt
#   make bench-async  async buffered-federation benchmarks -> bench/async.txt
#   make bench-recover journal-replay vs re-attest benchmarks -> bench/recover.txt
#   make bench-obs    telemetry-overhead benchmarks (off vs on) -> bench/obs.txt
#   make bench-smoke  every benchmark once, small cases only (CI)
#   make bench-pair PARENT=<rev> WORKLOAD=<name[,name]> [PAIRS=10]
#                     the ledger's paired-run recipe: <rev> against this tree
#   make smoke-telemetry run the observability example end to end
#   make smoke-secagg run the secure-aggregation walkthrough end to end
#   make smoke-hier   run the hierarchical flat-vs-hier walkthrough end to end
#   make smoke-recovery run the crash-and-recover walkthrough end to end
#   make smoke-async  run the sync-vs-async walkthrough end to end
#   make smoke-dynamicwindow run the moving-window cost walkthrough end to end
#   make smoke-attackdemo run DRIA with and without L2 in the TEE end to end
#   make smoke-repro  regenerate every paper artefact through the CLI
#   make smoke-fleet  run the 256-client fleet twice; the reruns must match
#   make smoke-quickstart run one client's static-plan secure training
#   make smoke-federated run a TEE-attested session over the in-memory transport
#   make check        build + vet + test + fuzz regression + example smokes (CI gate)
#   make loc          non-test Go lines per package (the count ROADMAP/CHANGES quote)
#
# Benchmark artefacts land in the git-ignored bench/ directory.

GO ?= go

.PHONY: build vet test fuzz-check fuzz-smoke bench bench-fleet bench-secagg bench-hier bench-async bench-recover bench-obs bench-smoke bench-pair smoke-telemetry smoke-secagg smoke-hier smoke-recovery smoke-async smoke-dynamicwindow smoke-attackdemo smoke-repro smoke-fleet smoke-quickstart smoke-federated check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The packages holding fuzz targets: every decoder that faces hostile
# input.
FUZZ_PKGS = ./internal/wire ./internal/fl ./internal/journal ./internal/obs ./internal/secagg ./internal/core

# Replays the fuzz seed corpora as ordinary tests. `make test` already
# covers the seeds implicitly (go test runs fuzz targets as unit tests);
# this target is the explicit, fast regression gate for the decoder
# corpora and the entry point documented for CI.
fuzz-check:
	$(GO) test -run 'Fuzz' $(FUZZ_PKGS)

# Real fuzzing, briefly: `go test -fuzz` takes one target per run, so
# each Fuzz* target of each package gets its own 5 s run. Not part of
# `check` (it is time-boxed rather than deterministic); CI runs it after.
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

bench:
	$(GO) test -run xxx -bench . -benchtime=1x -benchmem .

# Fixed-iteration fleet benchmark sweep (clients × codec), captured as a
# comparable artefact. Not part of `check`: it takes minutes. Written to
# the file first so a failing run propagates its exit status (a bare
# pipe into tee would mask it).
bench-fleet:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkFleetRound' -benchtime=2x -benchmem . > bench/fleet.txt; \
	status=$$?; cat bench/fleet.txt; exit $$status

# The telemetry example doubles as the observability smoke test: it
# runs a metered fleet, serves the admin listener, and scrapes its own
# /metrics and /healthz — failing loudly if the exposition is empty.
smoke-telemetry:
	$(GO) run ./examples/telemetry

# The secure-aggregation walkthrough as a smoke test: masked rounds on
# the default mask degree — full cohort, straggler dropout within the
# default tolerance, enclave-protected tensors — each of which must land
# bit-identically on its plaintext twin or the run exits non-zero.
smoke-secagg:
	$(GO) run ./examples/secagg

# The hierarchy walkthrough as a smoke test: the same fleet flat and
# through a root over edge aggregators — plain, masked, and with a shard
# degrading mid-session. It exits non-zero when a flat-vs-hier model
# diverges.
smoke-hier:
	$(GO) run ./examples/hier

# The crash-recovery walkthrough as a smoke test: a flat fleet killed
# mid-round and recovered from its journal (flsim.RunWithCrash behind
# the facade). It exits non-zero when the recovered model diverges from
# the uninterrupted run's.
smoke-recovery:
	$(GO) run ./examples/recovery

# The asynchronous walkthrough as a smoke test: one seeded fleet paced
# by round barriers and then barrier-free (flsim.RunAsync behind the
# facade). It exits non-zero when either session fails.
smoke-async:
	$(GO) run ./examples/async

# The paper's core as a smoke test: the dynamic plan's Table 6 cost from
# the analytic model, then one window period of live secure training on
# a simulated device. It exits non-zero when the live clock and the
# model differ by a nanosecond on any cycle.
smoke-dynamicwindow:
	$(GO) run ./examples/dynamicwindow

# The protection half of the paper's trade-off as a smoke test (≈1 s):
# DRIA against one LeNet-5-mini training step. It exits non-zero unless
# the reconstruction succeeds unprotected (ImageLoss < 1) and fails with
# L2 in the TEE (ImageLoss > 1).
smoke-attackdemo:
	$(GO) run ./examples/attackdemo

# Every artefact of internal/repro's registry through the CLI (≈7 s). It
# exits non-zero on an unknown ID or an empty table; the bytes themselves
# are pinned by TestGoldenArtefacts.
smoke-repro:
	$(GO) run ./cmd/gradsec-repro > /dev/null

# The fleet walkthrough as a smoke test (≈1 s): 256 simulated clients with
# stragglers, failures and no-TEE devices, run twice. It exits non-zero
# when the rerun's trace, quarantine set or final model differs.
smoke-fleet:
	$(GO) run ./examples/fleet

# The paper's core on one device (≈1 s): three cycles of static L2+L5
# secure training and the server-side recovery of the full update.
smoke-quickstart:
	$(GO) run ./examples/quickstart

# A full in-memory session (≈1 s): TEE-attested selection turns away the
# legacy client, two GradSec clients train three rounds. Any failure is
# fatal.
smoke-federated:
	$(GO) run ./examples/federated

check: build vet test fuzz-check smoke-telemetry smoke-secagg smoke-hier smoke-recovery smoke-async smoke-dynamicwindow smoke-attackdemo smoke-repro smoke-fleet smoke-quickstart smoke-federated

# Non-test Go lines per package — the number ROADMAP's needle 2 and
# CHANGES.md track — from one recipe, so it is reproduced, not retyped:
#   find <pkg> -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
# (-maxdepth 1 only keeps the root package from counting its children.)
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read -r pkg; do \
		rel=$${pkg#$(CURDIR)}; rel=$${rel#/}; \
		printf '%6d %s\n' "$$(find "$$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$${rel:-.}"; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# Privacy-ladder benchmark: plain vs k-regular masked (auto degree,
# the default) vs enclave aggregation at 64/256/1024 clients. Three
# iterations per cell: single-shot fleet rounds swing ±20% on a busy
# host, which is noise the masked/plain ratio cannot absorb.
bench-secagg:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkSecAggRound' -benchtime=3x -benchmem . > bench/secagg.txt; \
	status=$$?; cat bench/secagg.txt; exit $$status

# Hierarchical fan-in benchmark: flat server vs sharded root over
# protocol stubs at 4096/16384 simulated clients. The flat 16384-client
# baseline alone runs for minutes — that asymmetry is the result.
bench-hier:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkHierRound' -benchtime=1x -benchmem -timeout 60m . > bench/hier.txt; \
	status=$$?; cat bench/hier.txt; exit $$status

# Async buffered-federation benchmark: deterministic virtual-time fleets
# at 64/256 clients, 8 buffered applications each. The async soak and
# edge-case tests themselves run under the race detector via `make
# test` (part of `check`).
bench-async:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkAsyncRound' -benchtime=1x -benchmem -timeout 60m . > bench/async.txt; \
	status=$$?; cat bench/async.txt; exit $$status

# Telemetry-overhead benchmark: the same stub-client round with
# observability disabled (nil instruments, must cost zero extra
# allocations) and enabled (registry + span sink), plus the merged
# path (BenchmarkObsRoundMerged — a root folding 16 shard snapshot
# deltas per round). The reference pair lives in EXPERIMENTS.md.
bench-obs:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkObsRound' -benchtime=5x -benchmem . > bench/obs.txt; \
	status=$$?; cat bench/obs.txt; exit $$status

# Crash-recovery benchmark: journal replay (time-to-resume) vs the
# per-device re-attestation a journal-less restart pays, at 256/1024
# clients.
bench-recover:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkRecover' -benchtime=20x -benchmem . > bench/recover.txt; \
	status=$$?; cat bench/recover.txt; exit $$status

# CI benchmark smoke: run every benchmark exactly once with the heavy
# cases gated behind -short, so bench code can neither rot uncompiled
# nor unrun.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -timeout 20m ./...

# The repository benchmark's paired-run recipe (benchmark/README.md) as one
# command: alternating runs of PARENT and of this tree on WORKLOAD, each
# side's median and quartiles per end-to-end metric, and the pairs won.
# SEED0, SECONDS_PER_RUN, TRACE=1 and OUT=<file.json> pass through the
# environment (scripts/bench-pair.sh); BENCH_<pr>.json files are its OUT.
bench-pair:
	scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)
