# Tier-1 verification: everything `make verify` runs must pass before a
# change lands. `go vet` and the race detector are part of the gate —
# the metrics registry promises race-clean concurrent reads, so the
# -race run is what keeps that promise honest.

GO ?= go

.PHONY: all build test vet staticcheck race verify bench bench-scale experiments clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is part of the gate where the binary exists (CI installs
# it); locally it degrades to a skip so `make verify` never depends on
# tooling the repo cannot vendor.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

race:
	$(GO) test -race ./...

verify: build vet staticcheck test race

# Hot-path benchmarks: the §3.2 gateway invoke under each engine with
# the native Go handler as its floor, the gateway's (host, port) table
# lookup, the event queue, the timing wheel (on and off,
# same load), batched link delivery, the copy-on-write fan-out, the
# observed-vs-unobserved forwarding pair that bounds the event bus's
# no-op overhead, and one full sweep through the parallel experiment
# driver. Raw `go test -bench` text (benchstat-comparable) goes to
# stdout; benchjson distills ns/op + allocs/op into BENCH_core.json,
# preserving the pre-rewrite baseline block already in that file.
HOT_BENCH = BenchmarkEngineInterpGateway$$|BenchmarkEngineJITGateway$$|BenchmarkEngineNativeGateway$$|BenchmarkTableGatewayKey$$|BenchmarkEventQueue$$|BenchmarkTimerWheel$$|BenchmarkTimerWheelOff$$|BenchmarkBatchedDelivery$$|BenchmarkPacketFanout$$|BenchmarkSimulatorForwarding$$|BenchmarkSimulatorForwardingObserved$$|BenchmarkAspbenchSweep$$

bench:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -benchmem -count=3 . | $(GO) run ./cmd/benchjson -o BENCH_core.json

# City-scale sharded-simulation throughput: the full metropolitan city
# (10k+ edge routers, ~1M modeled clients) at 1 and 4 shards. Each run
# is a single full simulation (-benchtime 1x), repeated 3x and averaged;
# benchjson carries the events/s and pkts/s/core ReportMetric units into
# BENCH_scale.json.
SCALE_BENCH = BenchmarkCityScale1$$|BenchmarkCityScale4$$

bench-scale:
	$(GO) test -run '^$$' -bench '$(SCALE_BENCH)' -benchtime 1x -count=3 -timeout 30m . | $(GO) run ./cmd/benchjson -o BENCH_scale.json \
		-note "City-scale sharded-simulation snapshot (full metropolitan city); regenerate with \`make bench-scale\`. Values are means over -count full runs; pkts/s/core divides by min(shards, GOMAXPROCS) — on a single-core machine the 4-shard gain comes from smaller per-shard heaps, not parallelism. See docs/PERFORMANCE.md."

# Regenerate every paper figure/table.
experiments:
	$(GO) run ./cmd/aspbench -exp all

clean:
	$(GO) clean ./...
