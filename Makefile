# Development and CI entry points. `make ci` is the gate: vet, build,
# tests, and the wppfile/root concurrency tests under the race
# detector.

GO ?= go

.PHONY: build test race vet lint vuln cover bench bench-mem perfbench-smoke serve-test ingest-test diff-test diff-check passes-test fuzz-seed ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency: the parallel
# compaction pipeline (root), its stages (wpp, core) including the
# streaming compactor's background DBB batches, the concurrent indexed
# extraction + decode cache and the parallel ReadAll (wppfile), the
# segmented container's background-merge swap protocol (segment), and
# the format × backend × shape matrix, the broadest ReadAll caller
# (testkit).
race:
	$(GO) test -race ./internal/wppfile/ ./internal/wpp/ ./internal/core/ ./internal/segment/ ./internal/testkit/ .

vet:
	$(GO) vet ./...

# gofmt is part of the toolchain, so its gate always runs: any file
# it would reformat fails lint. staticcheck is optional tooling: run
# it when the host has it, skip quietly (with a note) when it does
# not, so ci works in hermetic containers without network access.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet already ran)"; \
	fi

# Known-vulnerability scan, gated like staticcheck: run when the host
# has govulncheck, skip quietly otherwise (hermetic containers have
# neither the tool nor the network to fetch its database).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# Coverage floor on the decode-critical packages: the corruption sweep
# and fuzz targets only mean something if the decoders they exercise
# are actually covered. Fails if either package drops below 70%.
COVER_FLOOR ?= 70
cover:
	@for pkg in ./internal/encoding/ ./internal/wppfile/; do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		if [ $$(printf '%.0f' "$$pct") -lt $(COVER_FLOOR) ]; then \
			echo "$$pkg coverage $$pct% below floor $(COVER_FLOOR)%"; exit 1; \
		fi; \
	done

# Quick benchmark sweep of the parallel pipeline and concurrent
# extraction (full tables: `go run ./cmd/twpp-bench`), plus the two
# compaction kernels — DBB discovery and timestamp inversion — over
# one profile's unique traces, with allocations, and the read path's
# layers — DCG decode, owned block decode, whole-container ReadAll —
# on one profile, with allocations.
bench:
	$(GO) test -run xxx -bench 'ParallelCompact|ConcurrentExtract|Table' -benchtime 1x .
	$(GO) test -run xxx -bench 'CompactTrace|FromPath' -benchtime 100x ./internal/wpp/ ./internal/core/
	$(GO) test -run xxx -bench 'ReadAll' -benchmem -benchtime 50x ./internal/wppfile/

# Peak-heap comparison of the batch and streaming compaction pipelines
# (one iteration each; fast enough for local runs and CI). Fails unless
# the streaming peak is below the batch peak: the claim the streaming
# pipeline exists for, which also bounds its in-memory image encode.
bench-mem:
	@out=$$($(GO) test -run xxx -bench StreamCompact -benchtime 1x .) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '{ for (i = 2; i <= NF; i++) if ($$i == "peak-heap-bytes") { \
			if ($$1 ~ /\/batch/) batch = $$(i-1); if ($$1 ~ /\/stream/) stream = $$(i-1) } } \
		END { if (batch == "" || stream == "") { print "bench-mem: peak-heap-bytes not reported"; exit 1 } \
			printf "bench-mem: stream peak %.1f MB, batch peak %.1f MB\n", stream / 1e6, batch / 1e6; \
			if (stream + 0 >= batch + 0) { print "bench-mem: streaming peak is not below the batch peak"; exit 1 } }'

# The benchmark's own build and correctness checks (perfbench/ is a
# separate module, outside `go test ./...`). Timed runs go through
# `python3 perfbench/run.py`; see perfbench/README.md.
perfbench-smoke:
	cd perfbench && $(GO) test .

# Serving-layer gate: the full server test suite — parity oracle over
# every generator shape, the 16-client load soak, and the corruption
# sweep — under the race detector, plus the pure-Go serving throughput
# smoke.
serve-test:
	$(GO) test -race ./internal/server/ ./internal/obs/ ./cmd/twpp-serve/
	$(GO) test -run xxx -bench ServeExtract -benchtime 1x ./internal/server/

# Ingestion-layer gate: the write-path test suite — the ingest parity
# oracle over every generator shape, the 16-producer soak with
# kill-and-reconnect, the wire-frame corruption sweep, and the
# end-to-end serve parity acceptance — under the race detector.
ingest-test:
	$(GO) test -race ./internal/ingest/ ./cmd/twpp-ingest/

# Differential gate: the diff engine's metamorphic matrix (7 shapes ×
# {v1,v2,segmented} × {file,mmap,memory}), the perturbation-injection
# suite, and the twpp-diff golden/exit-code tests — under the race
# detector. (The /v1/diff parity oracle and the refresh load test live
# in ./internal/server/ and run under serve-test.)
diff-test:
	$(GO) test -race ./internal/diff/ ./cmd/twpp-diff/

# End-to-end diff gate on the example profiles: identical content must
# diff clean across segmentation (exit 0), and a regressed program
# must be flagged with exit 1 — not 0 (missed) and not 2+ (crashed).
diff-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' 0; \
	$(GO) run ./cmd/twpp-trace -src examples/diffcheck/base.mini -o $$tmp/base.wpp -stats=false; \
	$(GO) run ./cmd/twpp-trace -src examples/diffcheck/regressed.mini -o $$tmp/regressed.wpp -stats=false; \
	$(GO) run ./cmd/twpp-compact -in $$tmp/base.wpp -o $$tmp/base.twpp; \
	$(GO) run ./cmd/twpp-compact -in $$tmp/base.wpp -o $$tmp/base.twppd -segment-bytes 4096; \
	$(GO) run ./cmd/twpp-compact -in $$tmp/regressed.wpp -o $$tmp/regressed.twpp; \
	$(GO) run ./cmd/twpp-diff $$tmp/base.twpp $$tmp/base.twppd; \
	echo "diff-check: identical content diffs clean across segmentation"; \
	rc=0; $(GO) run ./cmd/twpp-diff -json $$tmp/base.twpp $$tmp/regressed.twpp >/dev/null || rc=$$?; \
	if [ $$rc -ne 1 ]; then echo "diff-check: regressed profile exited $$rc, want 1"; exit 1; fi; \
	echo "diff-check: regressed profile flagged (exit 1)"

# Analysis-pass gate: the registry and its passes (including the
# k-iteration path profiler), the cross-container matrix, and the
# twpp-query golden/exit-code tests — under the race detector. (The
# analyze-endpoint parity oracle lives in ./internal/server/ and runs
# under serve-test.)
passes-test:
	$(GO) test -race ./internal/passes/ ./cmd/twpp-query/

# Run the fuzz targets on their seed corpora only (no fuzzing time;
# the seeded cases run as ordinary tests): the compaction determinism
# targets at the root, the event demux's block runs against
# symbol-at-a-time feeding, the two compaction kernels and the slab DCG
# decoder against their reference oracles, the hostile-input decode
# targets in wppfile and encoding, the segmented-container manifest
# decoder, the ingest wire frame, the diff engine, and the
# analysis-pass dispatcher.
fuzz-seed:
	$(GO) test -run 'FuzzParallelCompactDeterminism|FuzzStreamCompactDeterminism' .
	$(GO) test -run 'FuzzDemuxRuns' ./internal/trace/
	$(GO) test -run 'FuzzCompactTrace' ./internal/wpp/
	$(GO) test -run 'FuzzFromPath' ./internal/core/
	$(GO) test -run 'FuzzDecodeCompacted|FuzzStreamRoundTrip|FuzzDecodeDCG' ./internal/wppfile/
	$(GO) test -run 'FuzzUvarintBatchParity' ./internal/encoding/
	$(GO) test -run 'FuzzManifestDecode' ./internal/segment/
	$(GO) test -run 'FuzzIngestFrame' ./internal/ingest/
	$(GO) test -run 'FuzzDiffCompacted' ./internal/diff/
	$(GO) test -run 'FuzzAnalyzePass' ./internal/passes/

ci: lint vuln build test race serve-test ingest-test diff-test diff-check passes-test fuzz-seed cover bench-mem perfbench-smoke
