# Developer entry points. CI runs the same targets so local runs and
# the pipeline can never drift apart.

GO ?= go

.PHONY: build test race test-noasm bench-overlap bench-overlap-smoke bench-kernel bench-kernel-smoke bench-wire bench-wire-smoke bench-load bench-load-smoke bench-chaos bench-chaos-smoke bench-strassen bench-strassen-smoke fault-conformance fuzz-smoke experiments-golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-noasm exercises the portable-only build: every SIMD micro-kernel
# and its assembly is excluded, so the Go 4×4 fallback path must stand
# on its own.
test-noasm:
	$(GO) test -tags noasm ./...

# bench-overlap emits BENCH_overlap.json: warm Engine.Exec wall-clock
# with the pipelined round loop on vs off at 256^3 and 512^3 on p=16
# simulated ranks, and fails if overlap-on is slower than overlap-off
# beyond 5% noise on any size. Best-of-10 for a stable local number.
bench-overlap:
	$(GO) run ./cmd/benchoverlap -sizes 256,512 -procs 16 -reps 10 -out BENCH_overlap.json -guard 1.05

# The CI smoke: identical artifact and guard, best-of-5 repetitions so
# a co-tenant CPU spike on the shared runner cannot fake a regression
# (both modes do identical total work; the guard budget is pure noise
# margin).
bench-overlap-smoke:
	$(GO) run ./cmd/benchoverlap -sizes 256,512 -procs 16 -reps 5 -out BENCH_overlap.json -guard 1.05

# bench-kernel emits BENCH_kernel.json: naive / packed-Go / packed-SIMD
# / autotuned Gflop/s at 256^3, 512^3 and 1024^3 (naive skipped above
# 512), best-of-5, and fails if packed-SIMD falls under 2x packed-Go at
# >= 512^3 or autotuning costs more than 5% against the best fixed tier.
bench-kernel:
	$(GO) run ./cmd/benchkernel -sizes 256,512,1024 -reps 5 -out BENCH_kernel.json -guard-simd 2.0 -guard-tuned 0.95

# The CI smoke: identical artifact and guards, smaller sizes and
# best-of-3 so the shared runner finishes quickly; the 2x SIMD bar is
# conservative enough (locally ~7-8x) that runner noise cannot fake a
# regression, and the tuned guard compares two measurements from the
# same process so noise hits both sides alike.
bench-kernel-smoke:
	$(GO) run ./cmd/benchkernel -sizes 256,512 -reps 3 -out BENCH_kernel.json -guard-simd 2.0 -guard-tuned 0.95

# bench-wire emits BENCH_wire.json: warm Engine.Exec wall-clock over 4
# real OS processes on Unix sockets vs the in-process backend at 256^3
# and 512^3 (p=4), plus the sustained request throughput of the cosmad
# serving stack (coalescing server behind its HTTP handler). No guard
# by default: sockets carry a real, machine-dependent cost; the number
# is the point, not a floor.
bench-wire:
	$(GO) run ./cmd/benchwire -sizes 256,512 -procs 4 -reps 5 -out BENCH_wire.json

# The CI smoke: same artifact, smaller sizes and best-of-3, with a very
# loose guard (wire must stay within 50x of in-process warm Exec) that
# only catches a pathological transport regression — e.g. a serialized
# mesh or a lost zero-copy path — never runner noise.
bench-wire-smoke:
	$(GO) run ./cmd/benchwire -sizes 128,256 -procs 4 -reps 3 -serve-duration 1s -out BENCH_wire.json -guard 50

# bench-load emits BENCH_load.json: a seeded bursty Zipfian workload
# replayed open-loop through the full serving stack (HTTP front-end,
# admission queue, coalescing, sharded plan caches) — throughput,
# p50/p99 latency, shed rate, plan-cache hit rate. Guards are
# deterministic and self-relative: the hit-rate floor is a property of
# the seeded catalog (requests >> shapes), and the overhead ceiling
# compares against a direct in-process engine measured in the same run,
# so runner noise moves both sides together and cannot fake a failure.
bench-load:
	$(GO) run ./cmd/benchload -requests 300 -reps 3 -out BENCH_load.json -guard-hit 0.7 -guard-overhead 50

# The CI smoke: identical artifact and guards, shorter trace and
# best-of-2 so the shared runner finishes quickly.
bench-load-smoke:
	$(GO) run ./cmd/benchload -requests 150 -reps 2 -out BENCH_load.json -guard-hit 0.7 -guard-overhead 50

# bench-chaos emits BENCH_chaos.json: recovery rate and mean attempt
# count over runs that each inject a first-attempt rank death under a
# WithRetry policy, the faulty/clean wall-clock ratio (the latency price
# of surviving a fault, backoff included), and the ABFT verification
# overhead with a bitwise-identity check on the verified product. The
# guard is deterministic: the fault script is seeded and every injected
# death must be survived, so any recovery rate below 1.0 is a real
# regression in the retry/recover path, never runner noise.
bench-chaos:
	$(GO) run ./cmd/benchchaos -procs 8 -size 256 -runs 20 -out BENCH_chaos.json -guard-recovery 1.0

# The CI smoke: identical artifact and guard, smaller shape and fewer
# runs so the shared runner finishes quickly.
bench-chaos-smoke:
	$(GO) run ./cmd/benchchaos -procs 4 -size 128 -runs 8 -out BENCH_chaos.json -guard-recovery 1.0

# bench-strassen emits BENCH_strassen.json: CAPS (Strassen, ω = log₂7)
# vs COSMA effective Gflop/s, event-clock critical path and measured
# per-rank volume at 512³/1024³ on p ∈ {8,16}. The guard encodes the
# BDHS trade-off, not a speed win: at the largest size CAPS's MaxVolume
# must be ≥ 1.0× COSMA's — a lower ratio means the CAPS schedule
# silently degenerated to a local run instead of paying for its
# sub-cubic flop count with redistributions.
bench-strassen:
	$(GO) run ./cmd/benchstrassen -sizes 512,1024 -procs 8,16 -reps 3 -out BENCH_strassen.json -guard-volume 1.0

# The CI smoke: identical artifact and guard, smaller shapes and fewer
# reps so the shared runner finishes quickly.
bench-strassen-smoke:
	$(GO) run ./cmd/benchstrassen -sizes 128,256 -procs 8,16 -reps 2 -out BENCH_strassen.json -guard-volume 1.0

# fault-conformance runs the transport-semantics suite's fault-injection
# section under -race on all three transports: every injected failure
# class (rank death, message drop, delay, straggler) must surface as a
# prompt error — never a deadlock (the suite runs behind hard watchdog
# timeouts).
fault-conformance:
	$(GO) test -race -run 'TestConformance.*/Fault' -count=1 ./internal/machine/...

# fuzz-smoke gives each fuzz target a short randomized budget beyond
# its checked-in seed corpus; crashers land in testdata/fuzz and fail
# subsequent plain `go test` runs until fixed.
fuzz-smoke:
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 30s -run '^$$' ./internal/machine/wire
	$(GO) test -fuzz FuzzMultiplyHandler -fuzztime 30s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 30s -run '^$$' ./internal/serve

# experiments-golden diffs the default `cmd/experiments` output (every
# paper table and figure) against the committed golden file, so a
# refactor of the model layer that moves any printed digit fails here.
# The golden is generated on linux/amd64 with the default GOAMD64 (see
# cmd/experiments/testdata/README.md); regenerate it deliberately with
#   go run ./cmd/experiments > cmd/experiments/testdata/default.golden
experiments-golden:
	$(GO) run ./cmd/experiments | diff -u cmd/experiments/testdata/default.golden -
