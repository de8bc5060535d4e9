GO ?= go
# FUZZTIME bounds each fuzz target's run; CI's smoke tier shrinks it.
FUZZTIME ?= 20s

.PHONY: build test test-noasm check fmt-check bench race vet cross chaos elastic fuzz soak sdc sdc-quick modes bench-overlap bench-overlap-quick bench-guard bench-sweep bench-kernel bench-grouped bench-p2p experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-noasm runs the full suite with the SIMD kernels compiled out: the
# scalar backend is the only registered backend and the assembly stubs
# resolve to the pure-Go fallbacks, mirroring non-amd64 platforms.
test-noasm:
	$(GO) test -tags noasm ./...

vet:
	$(GO) vet ./...

# cross vets the tree for a big-endian target (s390x) and builds it for
# arm64, so the byte-order-independent wire codec path and every
# architecture-specific file keep compiling off amd64.
cross:
	GOARCH=s390x $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# fmt-check fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./internal/tensor/... ./internal/comm/... ./internal/pipeline/... ./internal/launch/...

# chaos runs the fault-injection suite under the race detector: transport
# chaos (drop/dup/reorder/corrupt/reset), deadline and peer-death paths,
# frame-decoder fuzz seeds, the checkpoint-recovery equivalence tests, and
# the grouped-belt suite (flat-equivalence, sub-ring collectives, and the
# grouped run over chaotic TCP).
chaos:
	$(GO) test -race -timeout 300s \
		-run 'Fault|Chaos|Timeout|PeerDeath|Recovery|Resilient|Crash|Frame|CloseFailsPending|CloseLeaks|DialTimeout|Grouped|SubRing' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/

# elastic runs the ring-repair suite under the race detector: buddy
# replication off the critical path, shrink/spare repair (including the
# headline kill-over-chaotic-TCP bit-identity test), double-death
# checkpoint fallback, membership agreement, restart-loop edge cases, and
# the straggler watchdog.
elastic:
	$(GO) test -race -timeout 300s \
		-run 'Elastic|Buddy|Watchdog|Repair|Membership|DeadPeer' \
		./internal/comm/ ./internal/pipeline/ ./internal/launch/

fuzz:
	$(GO) test -run NONE -fuzz FuzzParseFrameHeader -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzBatchFrameDecode -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzMembershipEvidence -fuzztime $(FUZZTIME) ./internal/comm/
	$(GO) test -run NONE -fuzz FuzzChunkChecksum -fuzztime $(FUZZTIME) ./internal/comm/

# modes runs the P2P mode-equivalence suite for one transport mode under
# the race detector: every in-process and chaotic-TCP equivalence test plus
# the mode-specific transport tests. P2P_MODE filters the parameterized
# equivalence tests to one mode (frame, batched, duplex, auto; empty runs
# all), MODE_OUT collects JSONL run descriptors for artifact upload.
P2P_MODE ?=
MODE_OUT ?=
modes:
	WEIPIPE_P2P_MODE=$(P2P_MODE) WEIPIPE_MODE_OUT=$(MODE_OUT) \
		$(GO) test -race -run 'P2PMode' -count=1 -timeout 600s \
		./internal/comm/ ./internal/pipeline/ ./internal/schedule/

# soak replays SOAK_SCHEDULES seeded randomized fault schedules — process
# SIGKILLs, SIGSTOP stalls, timed one-sided partitions, frame-level chaos —
# against a 4-rank + 1-spare cross-process WZB2 cluster, requiring every
# run to finish bit-identical to its fault-free in-process replay with no
# goroutine or file-descriptor leaks. SOAK_OUT, when set, collects one
# JSONL supervisor trace per schedule (CI uploads them on failure).
SOAK_SCHEDULES ?= 8
soak:
	WEIPIPE_SOAK=$(SOAK_SCHEDULES) WEIPIPE_SOAK_OUT=$(SOAK_OUT) \
		$(GO) test -run TestSoakChaosSchedules -count=1 -v -timeout 600s ./internal/launch/

# sdc replays SDC_SCHEDULES seeded bit-flip schedules — corruption injected
# into resident weights, optimizer moments, belt staging buffers and (on
# alternate schedules) matmul outputs via the ABFT fault hook — against a
# WZB2 ring over chaotic TCP with full integrity defense armed. Every flip
# must be detected and repaired (checkpoint restart), every run must finish
# bit-identical to its fault-free oracle: zero silent corruptions. SDC_OUT,
# when set, collects one JSON report + Chrome trace per schedule.
SDC_SCHEDULES ?= 8
sdc:
	WEIPIPE_SDC=$(SDC_SCHEDULES) WEIPIPE_SDC_OUT=$(SDC_OUT) \
		$(GO) test -run TestSoakBitFlipSchedules -count=1 -v -timeout 600s ./internal/pipeline/

# sdc-quick is the 2-schedule slice of the bit-flip soak used inside the
# pre-merge gate (one kernel-flip schedule, one state-flip schedule).
sdc-quick:
	WEIPIPE_SDC=2 $(GO) test -run TestSoakBitFlipSchedules -count=1 -timeout 300s ./internal/pipeline/

# bench-overlap records the functional blocking-vs-overlapped belt-engine
# A/B — step time, the compute loop's blocked time inside weight-belt
# transport receives, exposed belt stalls, belt bytes in both wire formats,
# and a bit-identity verdict — into BENCH_overlap.json. Reps of the two
# modes are interleaved in time and min-filtered to suppress host noise.
bench-overlap:
	$(GO) run ./cmd/weipipe-bench -overlap -iters 4 -reps 6 -out BENCH_overlap.json

# bench-overlap-quick keeps the same A/B inside the pre-merge gate at a
# fraction of the cost (small model, single rep); the report goes to a
# scratch file so the gate never dirties the checked-in measurement.
bench-overlap-quick:
	$(GO) run ./cmd/weipipe-bench -overlap -iters 1 -reps 1 -H 128 -out /tmp/weipipe_bench_overlap_quick.json

# bench-guard is the CI regression guard: run the quick overlap A/B and
# fail unless the report's bit_identical verdict is true, then run the
# functional MatMulNT 256³ kernel A/B and fail unless the best SIMD
# backend beats scalar by 2× (the local target is 4×+; the CI margin
# absorbs shared-runner noise; hosts with no SIMD backend pass
# vacuously), then regenerate the grouped-belt traffic report and fail
# unless wzb2g stays bit-identical to wzb2 while cutting inter-group bytes
# both on the wire (p=16) and in the simulated grid. Report paths are
# overridable so CI can upload artifacts.
BENCH_GUARD_OUT ?= /tmp/weipipe_bench_guard.json
KERNEL_GUARD_OUT ?= /tmp/weipipe_kernel_guard.json
GROUPED_GUARD_OUT ?= /tmp/weipipe_grouped_guard.json
P2P_GUARD_OUT ?= /tmp/weipipe_p2p_guard.json
bench-guard:
	$(GO) run ./cmd/weipipe-bench -overlap -iters 1 -reps 1 -H 128 \
		-out $(BENCH_GUARD_OUT) -require-bit-identical
	$(GO) run ./cmd/weipipe-bench -kernel -kernel-out $(KERNEL_GUARD_OUT) \
		-require-kernel-speedup 2
	$(GO) run ./cmd/weipipe-bench -grouped -grouped-out $(GROUPED_GUARD_OUT) \
		-require-grouped-win
	$(GO) run ./cmd/weipipe-bench -p2p -p2p-out $(P2P_GUARD_OUT) \
		-require-p2p-win

# bench-sweep regenerates BENCH_sweep.json, the committed machine-readable
# strategy×topology×scale grid of the cost model. The model is
# deterministic: a clean regeneration must leave the file unchanged.
bench-sweep:
	$(GO) run ./cmd/weipipe-bench -sweep -sweep-out BENCH_sweep.json

# bench-kernel records the committed functional kernel A/B measurement.
bench-kernel:
	$(GO) run ./cmd/weipipe-bench -kernel -kernel-out BENCH_kernel.json

# bench-grouped regenerates BENCH_grouped.json: the simulated flat-vs-grouped
# belt traffic grid (16–64 ranks on the hierarchical topologies) plus the
# functional p=16 A/B with per-link-tier byte meters and a bit-identity
# verdict. Both halves are deterministic, so a clean regeneration must leave
# the committed file unchanged.
bench-grouped:
	$(GO) run ./cmd/weipipe-bench -grouped -grouped-out BENCH_grouped.json

# bench-p2p regenerates BENCH_p2p.json: the simulated frame/batched/duplex/
# auto link-model grid (envelope counts, bytes, modelled throughput) plus
# the functional p=4 mode A/B against the frame baseline (belt traffic and
# bit-identity). Both halves are deterministic, so a clean regeneration
# must leave the committed file unchanged.
bench-p2p:
	$(GO) run ./cmd/weipipe-bench -p2p -p2p-out BENCH_p2p.json

# experiments regenerates the full paper-table output that EXPERIMENTS.md
# is curated from, stamped with the kernel backend that produced it. CI
# uploads the file as an artifact on every run.
EXPERIMENTS_OUT ?= /tmp/weipipe_experiments.txt
experiments:
	$(GO) run ./cmd/weipipe-bench -exp all > $(EXPERIMENTS_OUT)
	@echo "experiments regenerated into $(EXPERIMENTS_OUT)"

# check is the pre-merge gate: formatting, static analysis, the race
# detector over the packages with real concurrency (kernel worker pool,
# transports, pipeline schedules), the fault-injection suite, the
# elastic-repair suite, a 2-schedule slice of the bit-flip SDC soak, the
# noasm (scalar-only) build of the kernel packages, and a quick
# overlap-engine A/B (bit-identity + telemetry sanity).
check: fmt-check vet race chaos elastic sdc-quick check-noasm-kernels bench-overlap-quick

# check-noasm-kernels is the cheap slice of test-noasm used inside the
# pre-merge gate: just the packages whose code paths change under the tag.
.PHONY: check-noasm-kernels
check-noasm-kernels:
	$(GO) test -tags noasm ./internal/tensor/ ./internal/nn/

bench:
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkTranspose' -benchmem -run NONE ./internal/tensor/
	$(GO) test -bench BenchmarkBlock -benchmem -run NONE ./internal/nn/
