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
# Targets are listed per package with `go test -list '^Fuzz'`, so a new
# one runs without being named here. Every target runs even when an
# earlier one fails; the recipe fails at the end, naming the failures.
# Committed regression corpora live in each package's testdata/fuzz and
# replay under plain `go test` as well.
FUZZTIME ?= 10s
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2 ":" t[i]; n = 0 }'); \
	failed=""; \
	for t in $$targets; do \
		echo "== $$t"; \
		$(GO) test "$${t%:*}" -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz targets failed:$$failed"; exit 1; fi

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
