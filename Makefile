GO ?= go

.PHONY: all build vet test race chaos short fuzz ci service-soak overload

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (what CI runs).
race:
	$(GO) test -race ./...

# The seeded fault-injection sweep only (190 adversarial runs).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestTransport|TestCrash' ./internal/fault/ ./internal/tbon/

# Short shard: unit tests plus a small chaos slice; skips `go run` smoke tests.
short:
	$(GO) test -short -race ./...

# Native Go fuzzing: the reliable-transport resequencer and the TCP wire
# frame decoder (30s each by default; override with FUZZTIME=5m etc.).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzResequence -fuzztime=$(FUZZTIME) -run '^$$' ./internal/tbon/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire/

# The multi-tenant service shard: session/service/API suites, the
# journal-GC concurrency contract, and the kill -9 restart drill.
service-soak:
	$(GO) test -race -count=1 ./internal/session/ ./cmd/mustserve/
	$(GO) test -race -count=5 -run 'TestConcurrentAppendAndCheckpoint|TestFenceCutsOffConcurrentStaleWriter' ./internal/journal/

# Resource-governance shard: governor unit tests, the default-budget
# equivalence chaos sweep, the governed-by-default check, tiny-budget
# degradation drills, the stalled-consumer memory bound, and the
# overload-abort leak churn.
overload:
	$(GO) test -race -count=1 -run 'TestOverload|TestWireTCPBackpressure|TestMsgCost|TestGovernor|TestZeroBudgetIsDefault|TestAdmitIntake|TestSendqByteCap' ./internal/fault/ ./internal/tbon/

ci: vet build race
