# XRefine build targets. Everything is stdlib-only Go; the Makefile just
# names the common invocations.

GO ?= go

.PHONY: all build vet test race bench benchsmoke cover fuzz experiments examples conformance clean

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

# The conformance matrix under the race detector: every deployment (codec
# x topology x server config x state) answers one script byte for byte
# like one reference monolith, and the process cells boot race-built
# xserves for the signal drain, the kill -9 restart and the ops surfaces.
conformance:
	$(GO) test -race -run TestConformance -v ./internal/wire

examples:
	$(GO) test -run '^Example' -v .

clean:
	$(GO) clean ./...
