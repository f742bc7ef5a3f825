GO ?= go

.PHONY: all vet build test race test-recovery test-gateway test-oracle test-nn bench fuzz-smoke bench-trajectory bench-smoke check

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Durability gate: the job-store units (WAL replay, torn tail,
# checkpoint atomicity, cache), the scheduler recovery/cache/lifecycle
# suite, and the process-level SIGKILL kill-and-restart test that pins
# bit-identical resumed trajectories — all under the race detector.
test-recovery:
	$(GO) test -race ./internal/jobstore ./internal/serve
	$(GO) test -race -run 'TestKillRestartRecovery|TestEventsCloseOnDrain|TestCachedSubmissionOverHTTP|TestSubmitValidation|TestDivergenceFallbackOverHTTP' -v ./cmd/xserve

# Gateway gate: the shared job protocol (status schema, event-stream
# codec round trip over a real scheduler), the ring/health/breaker/
# failover/overload unit suite on fake workers speaking that protocol,
# then the process-level chaos test — three real xserve workers behind
# the gateway, one SIGKILLed mid-trajectory, every job finishing under its
# original ID with finals bit-identical to an undisturbed reference run —
# all under the race detector.
test-gateway:
	$(GO) test -race ./internal/jobapi/... ./internal/gateway
	$(GO) test -race -run TestChaosKillWorkerMidTrajectory -v ./cmd/xgate

# Cross-strategy quality oracle: two structurally independent placers
# (Nesterov gradient flow vs LB/UB alternation) must agree on scaled
# adaptec1 within the checked-in band, the LB/UB side must be bit-identical
# run to run, and a diverging job must be rescued end-to-end by the
# serve-level lbub fallback.
test-oracle:
	$(GO) test -run 'TestOracle|TestLBUB|TestNesterovDiverges' -v ./internal/placer
	$(GO) test -run 'TestDivergenceFallbackOverHTTP|TestLBUBJobOverHTTP|TestStrategyInCacheKey' -v ./cmd/xserve

# Neural-field lane (§3.3 end to end, in-CI): the model-artifact
# integrity suite (versioned header, sha256, shape checks), a tiny FNO
# trained in-process with its training-MSE gate, the σ(ω) handoff /
# determinism / blended-quality placement tests, the facade -model
# option, and the serving side — registry, model-aware submit, and four
# concurrent jobs sharing one model through the batched inference path —
# under the race detector.
test-nn:
	$(GO) test -run 'TestArtifact|TestLoadRejects|TestGenerateBenchSamples|TestTrainingReducesLoss|TestGeneralizesToUnseenMaps|TestSaveLoadRoundTrip' -v ./internal/nn
	$(GO) test -run 'TestNNBlend' -v ./internal/placer
	$(GO) test -run 'TestSessionWithFieldModel|TestWithFieldModelTypedErrors|TestStatModelFacade' -v .
	$(GO) test -race -run 'TestModelRegistry|TestSubmitRejectsUnknownModel|TestBatchedInference' -v ./internal/serve
	$(GO) test -race -run 'TestSubmitModelValidation|TestModelJobOverHTTP' -v ./cmd/xserve

# Short fuzz pass over the file-format parsers and the job protocol's
# network decoders (the gateway's event-stream reader, the submit
# request): each target gets a few seconds on top of its seed corpus.
# Catches parser panics (negative or non-finite geometry, truncated
# streams) and non-canonical accepted requests before they ship.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/bookshelf
	$(GO) test -fuzz=FuzzParseLEF -fuzztime=$(FUZZTIME) ./internal/lefdef
	$(GO) test -fuzz=FuzzParseDEF -fuzztime=$(FUZZTIME) ./internal/lefdef
	$(GO) test -fuzz='^FuzzReadEvents$$' -fuzztime=$(FUZZTIME) ./internal/jobapi/jobhttp
	$(GO) test -fuzz='^FuzzRequest$$' -fuzztime=$(FUZZTIME) ./internal/jobapi

# Kernel-substrate and transform microbenchmarks (pool vs goroutine-spawn
# dispatch, DCT round trips). Allocation columns are the regression signal:
# pooled launches and warm transforms must report 0 allocs/op.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/kernel ./internal/dct

# Bench trajectory: the pinned seven-config run (DREAMPlace-style baseline,
# Xplace without operator combination, full Xplace, spectral truncation
# alone, the adaptive grid alone, the LB/UB alternation strategy and the
# Xplace-NN blended flow) on adaptec1, written as a machine-readable record
# with the poisson512 micro timings. Re-baselining BENCH_12.json is a
# deliberate act: run this target and commit the diff alongside the change
# that moved the numbers.
BENCH_BASELINE ?= BENCH_12.json
bench-trajectory:
	$(GO) run ./cmd/xbench -json $(BENCH_BASELINE)

# Bench smoke gate (CI): re-run the trajectory and fail on schema drift,
# >5% HPWL regression, or any launch-count change at equal iterations
# against the checked-in baseline.
bench-smoke:
	$(GO) run ./cmd/xbench -check $(BENCH_BASELINE)

check: vet build race
