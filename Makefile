# Mirrors .github/workflows/ci.yml so contributors can run CI locally:
# `make ci` runs exactly what the workflow runs.

GO ?= go

.PHONY: build test test-nommap race fuzz bench bench-smoke bench-module loc lint smoke ci fmt

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The file reader with mmap compiled out: on platforms without mmap the
# pread fallback is the only way a durable store reads frozen data and
# replays its log, so the packages that read them run once with the
# fallback forced on.
test-nommap:
	$(GO) test -tags semitri_nommap ./internal/wal/ ./internal/segment/ ./internal/query/ .

# Local, uncached race-detector pass focused on the concurrency surface (CI
# runs no separate job for it: build-and-test already runs every one of
# these tests under `go test -race ./...`): the parity suite
# (the stream path and ProcessRecords against the batch-kernel oracle,
# sequential + concurrent-interleaving variants), the fan-in driver, the
# lock-striped store, readers of Store.Structured racing the point layer's
# annotation merges (TestConcurrentStructuredRead, what GET /stats does
# during ingest), the query engine's concurrent read path
# (queries racing live ingestion — including the parallel executor, forced
# on via QueryParallelism in the relational ingest test), the parallel
# determinism property tests, the durability parity suite (checkpoints
# racing concurrent WAL-logged ingestion), the segment tier's freeze
# racing keyed cold reads (TestFreezeRacesKeyedReads) and freezes racing
# full scans, which read each key's frozen prefix by key like the keyed
# reads: TestTieredFreezeQueryRace (every racing scan reads each key's
# positions [0, n), no gap, no repeat) and TestScanBetweenWriteAndCommit
# (a scan between a freeze's write and its commit).
race:
	$(GO) test -race -count=1 -run 'TestBatchStreamParity|TestFanIn|TestConcurrent|TestStream|TestQuery|TestDurable' .
	$(GO) test -race -count=1 ./internal/store/ ./internal/query/ ./internal/wal/ ./internal/segment/

# The native fuzz targets, each for FUZZTIME (CI runs this target).
# FuzzEpisodesQuery: GET /query/episodes with any query string answers 200
# or 400 with one line of JSON of the declared length, never a panic or 500.
# FuzzDecodeMutation: the WAL and segment payload decoder, reading strings
# inline (a log frame) and as indexes into a dictionary cut to any length
# (a segment run, so an index can fall past its end), returns an error or
# a mutation that re-encodes to a fixed point, never a panic, and
# allocates at most a small multiple of its input; under any kind and time
# filter, any set of wanted run positions, and both, it errors exactly
# when the full decode does and keeps, at their positions, exactly the
# full decode's tuples the filters select; a segment run's reported stop
# count and span are its full decode's.
# FuzzReplaySegment: WAL replay of a log header followed by any bytes, read
# from memory, never panics, allocates at most a small multiple of the
# bytes, and rebuilds what the frames before the reported tear rebuild.
# FuzzDecodeFooter: the segment footer decoder (string dictionary, run
# directory with its keys as dictionary indexes, its tuple runs' spans and
# column frame offsets; no stored summary since footer version 5) returns
# an error or a footer that re-encodes to a fixed point, and the column
# frame decoder, checking only or projecting, errors alike and counts
# alike; neither panics, and each allocates at most a small multiple of
# its input. Its seeds are encoded by the current encoder, so a format
# change regenerates them.
# FuzzRecoverFooter: recovery of a directory whose second segment keeps its
# data frames (every op, merges included, strings indexing the written
# dictionary) under arbitrary column frames and an arbitrary footer returns
# an error or a store whose reads of every listed key never panic: the
# point reads and the scans, full and projected, which read each key's
# frozen prefix through its runs like the point reads.
# FuzzReadCSV: every record the GPS CSV reader yields has finite coordinates
# and round-trips through WriteCSV and ReadCSV unchanged.
# FuzzParse: the lexer makes the tokens and errors of a reference rune
# lexer, at the same rune offsets, and a statement of the query language
# that parses runs on an empty engine without an error.
# FuzzQueryForm: a query's normal form agrees with the documented query
# semantics: its tuple check with a reference evaluation, the cold scan's
# run skip (the kind and time clauses asked of a run's stops, moves and
# span, folded as wal.Span folds them) and every access path never drop an
# admitted tuple, and the conjunction of two forms (and of a form with a
# join row's pins) is exact. There is no segment check: no summary of a
# segment as a whole exists.
# Every target bounds the minimisation of each new input to 1s: Go's
# default budget is 60s, during which the target runs no new inputs at all.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEpisodesQuery$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMutation$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzReplaySegment$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFooter$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverFooter$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/gps
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/query/lang
	$(GO) test -run '^$$' -fuzz '^FuzzQueryForm$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/query

# Full benchmark run (the paper's tables/figures print under -v). Includes
# the spatial-layer lookup micro-benchmarks (BenchmarkRegionLookup,
# BenchmarkLineCandidates, BenchmarkPointCandidates).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# What CI's bench-smoke job runs: every benchmark once, the performance
# gates of perfgate_test.go among them (each fails the run when its bound
# breaks).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The benchmark under bench/ is a module of its own (replace semitri => ../),
# so root `go build ./... && go test ./...` neither compiles nor tests it:
# this target is what catches a root-module API change that breaks it. The
# smoke-scale run then exits non-zero on any failed operation or check. The
# second run adds the layer replay (--trace 1): the only check that the
# stores rebuilt by Store.Apply, by WAL replay and by reopening segments
# digest like the original, and the only caller that keeps the slices of
# logged mutations by reference. Both runs write under one temporary
# directory, each into its own subdirectory, removed when the recipe exits.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	bash bench/run.sh --scale 0.05 --seconds 2 --out "$$out/plain" && \
	bash bench/run.sh --scale 0.05 --seconds 2 --trace 1 --out "$$out/trace"

# Non-test Go LOC by the rule of bench/main.go's nonTestLOC(): every *.go
# minus *_test.go, bench/ and dot-directories excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/bench/*' ! -path '*/.*' -print0 | xargs -0 cat | wc -l

# Formatting + vet + staticcheck; fails when any file needs gofmt.
# staticcheck is skipped with a notice when the binary is not installed
# (CI installs it, so the lint job always runs the full set).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	gofmt -w .

# End-to-end probes of semitri-serve over HTTP (what CI's smoke job runs):
# the serving layer, WAL-tail and segment crash recovery, and live
# subscriptions. LEG=serve|recovery|coldstore|subscribe runs one leg.
smoke:
	./scripts/smoke.sh $(LEG)

# What CI runs: build, lint, tests (race, then the no-mmap file reader),
# the fuzz targets for 10s each, the nested benchmark module, the bench
# smoke pass with its gates and the end-to-end smoke legs.
ci: build lint test test-nommap fuzz bench-module bench-smoke smoke
