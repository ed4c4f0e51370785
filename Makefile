# XRefine build targets. Everything is stdlib-only Go; the Makefile just
# names the common invocations.

GO ?= go

.PHONY: all build vet test race bench benchsmoke cover fuzz experiments examples obs soak replicas wirediff clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem ./...

# bench/ is a module of its own that the root `go test ./...` never
# compiles: vet it and run its smoke test (every workload, briefly, against
# a real xserve) so an API change that breaks the benchmark is caught here.
benchsmoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench .

# Statement-coverage ratchet: fails if total coverage over ./internal/...
# drops below the floor in scripts/cover_floor.txt.
cover:
	./scripts/cover_gate.sh

# Short fuzz bursts on every fuzz target; lengthen with FUZZTIME=1m.
# Committed regression corpora live in each package's testdata/fuzz and
# replay under plain `go test` as well.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/dewey -fuzz FuzzFromBytes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dewey -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmltree -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmltree -fuzz FuzzAppendSnippet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -fuzz FuzzDecodeNode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -fuzz FuzzDecodeMeta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzQueryPipeline -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -fuzz FuzzShardMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -fuzz FuzzBlockCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -fuzz FuzzBuildStream -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzWireFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -fuzz FuzzWireRequest -fuzztime $(FUZZTIME)

# Regenerate every table and figure of the paper (takes minutes at scale 1).
experiments:
	$(GO) run ./cmd/xbench -scale 1.0 -reps 3 -queries 50 all

# End-to-end observability smoke test: boots xserve on a generated
# corpus, validates the /metrics exposition with the in-tree parser
# (cmd/obscheck), runs an explain=1 query, and checks /debug/slowlog.
obs:
	./scripts/obs_smoke.sh

# Mixed read/write soak of the live-update subsystem: the in-tree
# concurrency and crash-recovery suites under -race, then a race-built
# live xserve with concurrent query loops against streamed POST /update
# batches, ending in a durability-across-restart check.
soak:
	./scripts/update_soak.sh

# Replica fault-matrix soak: the in-tree replica suites under -race
# (byte-identity, hedging, failover, epoch reconciliation), then a
# race-built replicated xserve (2 shards x 2 replicas, chaos armed)
# diffed request-by-request against a monolith — zero result divergence.
replicas:
	./scripts/replica_soak.sh

# Wire-protocol conformance soak: a race-built xserve serving HTTP and
# the binary protocol from the same backend, diffed request-by-request
# (plain engine, chaos-armed replicas) — every non-degraded wire payload
# must be byte-identical to the HTTP body — ending in a both-surfaces
# drain check.
wirediff:
	./scripts/wire_diff.sh

examples:
	$(GO) test -run '^Example' -v .

clean:
	$(GO) clean ./...
