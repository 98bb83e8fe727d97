GO ?= go

RACE_PKGS := ./...

.PHONY: all build test test-poison race-poison race-stress vet fmt-check lint fuzz-smoke race bench bench-smoke benchmark-check benchmark-smoke lines

all: build test vet fmt-check lint bench-smoke benchmark-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The same tests against a reader that overwrites what ReadPacket lent
# with 0xDB at the start of the next read, and its whole window when the
# stream ends and the window goes to the next reader
# (internal/asf/poison_on.go): a caller that keeps a lent Payload fails
# here at its first packet, where the ordinary build passes until a
# window fill happens to land on it.
test-poison:
	$(GO) test -tags asfpoison ./...

vet:
	$(GO) vet ./...

# gofmt must report no files; print the offenders when it does.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo-native static-analysis suite (internal/lint, driven by
# cmd/lodlint): wire-contract literals stay in internal/proto,
# virtual-clock packages take time from vclock.Clock, request paths stay
# cancellable, internal handlers answer errors with the proto.Error
# JSON body, and the tiers keep their imports apart (layering: relay
# imports no player or client, player no net/http, client no server
# tier, the registry core no HTTP, clock, metrics or store). Successor
# to the retired api-check grep — it walks the AST, so Sprintf/concat
# compositions are caught and comments/tests are not.
lint:
	$(GO) run ./cmd/lodlint ./...

# Short seeded fuzz passes over every parser of bytes from outside the
# process: the proto request parsers, the catalog snapshot and its
# restore, and the asf container and script-packet readers.
# Minutes-long fuzzing is for `go test -fuzz=... <package>` by hand;
# this is the CI smoke tier.
fuzz-smoke:
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzStreamNameRoundTrip -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzParseStart -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzParseBandwidth -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzParseRange -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzSplitExclude -fuzztime=5s
	$(GO) test ./internal/catalog -run='^$$' -fuzz=FuzzStateRoundTrip -fuzztime=5s
	$(GO) test ./internal/catalog -run='^$$' -fuzz=FuzzRestore -fuzztime=5s
	$(GO) test ./internal/asf -run='^$$' -fuzz=FuzzReader -fuzztime=5s
	$(GO) test ./internal/asf -run='^$$' -fuzz=FuzzScriptPacket -fuzztime=5s

race:
	$(GO) test -race $(RACE_PKGS)

# The packages whose slab buffers go back to one pool and are carved
# again (asf's Pool, a server's stored assets and live channels, an
# edge's evicted mirrors, and the root package, where edges evict under
# traffic), under the race detector and the asfpoison build at once: a
# write still reading a buffer given back shows both as a data race
# against the 0xDB fill and as poison bytes in the body, and a packet
# view decoded from such a buffer as wrong fields.
race-poison:
	$(GO) test -race -tags asfpoison . ./internal/asf ./internal/streaming ./internal/relay

# The tests of a mirror served while its pull lands (a pull gated after
# its first GOP, a pull cut mid-way, a seek and a Range resume into a
# pull in flight), fifty times each under the race detector and the
# asfpoison build: bodies, listings and the parse share a growing asset,
# and their interleavings differ run to run.
race-stress:
	$(GO) test -race -tags asfpoison -count=50 -run 'Growing' ./internal/streaming ./internal/relay

# The root package's end-to-end benchmarks plus the write-path
# (internal/streaming), read-path (internal/asf), player
# (internal/player) and pacing-wheel (internal/vclock) microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/streaming ./internal/asf ./internal/player ./internal/vclock

# Every benchmark in the module, run once: a benchmark that no longer
# runs (a removed route, a changed API) fails the build here instead of
# at the next `make bench`. No timing is read.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark of record (BENCHMARK.json, benchmark/README.md) is a
# nested module the root `go build ./... && go test ./...` does not
# reach; this runs its own vet, tests and lint.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test . && $(GO) run repro/cmd/lodlint .

# All four workloads for three seconds each: passes when every run's
# validity guards hold (run.sh exits zero) and no operation failed (the
# result line says "correct":true). No timing gate — CI runners are
# shared; numbers come from `bash benchmark/run.sh` and `compare`.
benchmark-smoke:
	@for w in vod_warm vod_cold live_relay paced_class; do \
		echo "== $$w"; \
		out="$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0)" || { echo "$$out"; exit 1; }; \
		line="$$(echo "$$out" | tail -n 1)"; \
		echo "$$line"; \
		case "$$line" in '{"correct":true,'*) ;; *) echo "$$w: operations failed"; exit 1 ;; esac; \
	done

# Non-test Go lines per internal package and for the root module, then
# the root module's test lines (the nested benchmark module and its build
# directory excluded): the size figures ROADMAP.md and CHANGES.md quote.
lines:
	@for d in internal/*/; do \
		printf '%-22s %6d\n' "$${d%/}" "$$(find "$$d" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done
	@printf '%-22s %6d\n' "root module" "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@printf '%-22s %6d\n' "root module tests" "$$(find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
