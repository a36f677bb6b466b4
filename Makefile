# Tier-1 verification and day-to-day targets. `make ci` is what the
# roadmap's tier-1 check runs: build everything, vet, then the full test
# suite.

GO ?= go

.PHONY: all build test test-short vet fmt census bench-check cross-check test-race fuzz-short examples-smoke repro-smoke scenario-smoke daemon-smoke log-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 30m ./...

# Skips the slow full-grid Table II tests; useful while iterating.
test-short:
	$(GO) test -short ./...

# Besides go vet: the naive references and the switches that selected
# them live in _test.go files, so no production Go file outside bench/
# may name Oracle or SetWorkers; every parallel loop borrows from
# internal/par's pool at one worker per CPU (GOMAXPROCS, which tests pin),
# so no production Go file outside bench/ may declare a Workers field, a
# *Workers( function twin, or a function named or taking workers; and no
# exported declaration may go unnamed by non-test code (bench/ counts as
# a user), which TestNoUnusedExports (unused_test.go) lists by name.
vet:
	$(GO) vet ./...
	$(GO) test -run '^TestNoUnusedExports$$' .
	@out=$$(grep -rnw --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e Oracle -e SetWorkers .); \
	if [ -n "$$out" ]; then echo "test-only switch named in production code:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		-e '^[[:space:]]*Workers[[:space:]]+[^[:space:]]' -e '[[:alnum:]_]Workers\(' .); \
	if [ -n "$$out" ]; then echo "worker-count knob in production code (parallel stages run GOMAXPROCS workers):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'func [^{]*\b[wW]orkers\b' .); \
	if [ -n "$$out" ]; then echo "function with a worker count in production code (parallel loops borrow GOMAXPROCS workers from internal/par's pool):"; echo "$$out"; exit 1; fi

# Fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The size figures every ROADMAP anchor re-derives: non-test Go lines
# outside bench/, for the two serving packages, and for the §V fault
# analysis. Not part of ci.
census:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'internal/mlops + internal/controlplane: '; find internal/mlops internal/controlplane -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/analysis: '; find internal/analysis -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# The repo benchmark (bench/, run by BENCHMARK.json) is its own module,
# so `go build ./...` and `go test ./...` never compile it: this target
# is what tells an engine or control-plane refactor that it broke the
# benchmark's use of the program before the benchmark pipeline does.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The paper is an X86-vs-ARM study and the FT-Transformer serves the ARM
# fleet, but the CI box is amd64: cross-compile everything for arm64
# (which is what compiles mm_generic.go), vet the model code there, and
# run the tensor oracle suite and the infer≡forward test with the purego
# tag, which takes the portable mmBlocked path arm64 would run in place
# of the SSE2 micro-kernel. Both paths equalling the oracle is what makes
# a model trained on one architecture score identically on the other.
# Go may fuse x*y + z into one FMA instruction on arm64 (never on amd64
# at GOAMD64=v1), which would round an ARM host's kernels differently, so
# the loop disassembles both packages' arm64 test binaries (the reference
# kernels included) and fails on any fused multiply-add: write the product
# as float32(a*b), the spec's fusion barrier. It disassembles the binary
# rather than reading -gcflags=-S, which prints nothing on a cached build,
# and requires float multiplies in the dump so a pattern that matched no
# function cannot pass. The same dumps must hold no call to the hot
# tensor helpers the kernels rely on the compiler to inline (fexpCore sits
# exactly at the inline budget; `go build -gcflags=-m=2
# ./internal/ml/tensor/` prints each one's cost): an out-of-line call
# there puts a call into every softmax, GELU or attention element. The
# last line runs the ftt package benchmarks once each (under a second), so
# the timing tools no other target compiles cannot rot.
cross-check:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/ml/...
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for p in tensor ftt; do \
		GOOS=linux GOARCH=arm64 $(GO) test -c -o "$$d/$$p.test" ./internal/ml/$$p/ && \
		$(GO) tool objdump -s 'memfp/internal/ml/(tensor|ftt)\.' "$$d/$$p.test" > "$$d/$$p.s" || exit 1; \
		grep -q 'FMULS' "$$d/$$p.s" || { echo "cross-check: no float code disassembled for $$p"; exit 1; }; \
		if grep -E '\bF(N)?M(ADD|SUB)[SD]\b' "$$d/$$p.s"; then \
			echo "cross-check: fused multiply-add in the arm64 build of $$p"; exit 1; \
		fi; \
		if grep -E 'CALL memfp/internal/ml/tensor\.(fexpCore|axpy4|axpy1|dot1)\(SB\)' "$$d/$$p.s"; then \
			echo "cross-check: a hot tensor helper is called out of line in the arm64 build of $$p"; exit 1; \
		fi; \
	done && echo "cross-check: no fused multiply-add and no out-of-line hot helper in the arm64 tensor and ftt code"
	$(GO) test -tags purego ./internal/ml/tensor/ ./internal/ml/ftt/
	$(GO) test -run '^$$' -bench 'InferServingShape|FitStep' -benchtime 1x ./internal/ml/ftt/

# Race-detector pass over the packages that share state between
# goroutines: the worker pool and parallel generator, the indexed trace
# store, the DRAM address and bit helpers and the §V classifier every
# feature cursor and fold state holds, sharded feature extraction, the
# fleet cache, the parallel trainers and tensor kernels, the predictor
# registry, the serving engine (shard locks, promotion under concurrent
# ingest, compaction and freeze/thaw churn), the scenario runner and the
# control plane (handlers, heartbeats and per-node senders on one journal
# lock). The control plane's node router, which kills and rejoins change
# under the senders, gets ten more passes.
test-race:
	$(GO) test -race -timeout 20m ./internal/par/ ./internal/faultsim/ \
		./internal/trace/ ./internal/dram/ ./internal/analysis/ \
		./internal/features/ ./internal/pipeline/ \
		./internal/ml/tree/ ./internal/ml/forest/ ./internal/ml/gbdt/ \
		./internal/ml/tensor/ ./internal/ml/ftt/ \
		./internal/ml/model/ ./internal/mlops/ ./internal/scenario/ \
		./internal/controlplane/
	$(GO) test -race -count=10 -run '^TestRouterConcurrentRoutes$$' ./internal/controlplane/

# Short fuzz passes: the bin mapper (the substrate every tree model bins
# through), the scenario YAML-subset parser and the schema decoder behind
# it (user input — malformed files must error, never panic), the binary event-frame decoder
# (untrusted wire input to the control plane's ingest endpoint), the
# engine-snapshot restore a rejoining node runs on bytes pulled over
# HTTP, the checkpoint-chain merge the control plane runs before it
# (FuzzMergeSnapshot: a delta decoded onto its base) and the fold-state
# decoder inside both (FuzzDecodeFoldState: the classifier a record's
# cell counts rebuild), and the two frame decoders
# on the node <-> control-plane wire (MFT1 tick batches a node reads, MFR1
# responses the control plane reads), the model-artifact loader a node
# runs on a pulled artifact (FuzzModelLoad: one seed per registered
# algorithm) and the BMC text line parser a collected log meets first
# (FuzzDecodeEvent); part of ci so regressions in edge handling surface
# early.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzBinMapper$$' -fuzztime 15s ./internal/ml/tree/
	$(GO) test -run '^$$' -fuzz '^FuzzParseYAML$$' -fuzztime 15s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime 15s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEventFrame$$' -fuzztime 15s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSnapshot$$' -fuzztime 15s ./internal/mlops/
	$(GO) test -run '^$$' -fuzz '^FuzzMergeSnapshot$$' -fuzztime 15s ./internal/mlops/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFoldState$$' -fuzztime 15s ./internal/features/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTickFrame$$' -fuzztime 15s ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRespFrame$$' -fuzztime 15s ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzModelLoad$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/ml/model/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvent$$' -fuzztime 15s ./internal/trace/

# Build-and-run smoke over the examples at tiny scale: the quickstart
# (fleet → train → evaluate) and the mlops walkthrough (train → gate →
# serve → persist). Scales/seeds chosen so both carry training positives.
# The walkthrough runs at -shards 1 and -shards 4 and its two outputs must
# be identical once the lines that name the shards are dropped: its
# -shards help promises the same alarms at any shard count.
examples-smoke:
	$(GO) run ./examples/quickstart -scale 0.02 -seed 7 > /dev/null
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/mlops" ./examples/mlops && \
	for n in 1 4; do \
		"$$d/mlops" -platform Intel_Purley -scale 0.03 -seed 31 -shards $$n > "$$d/out-$$n" || exit 1; \
		grep -v -e '^serving engine:' -e '^shard [0-9]*:' "$$d/out-$$n" > "$$d/cmp-$$n"; \
	done && \
	cmp "$$d/cmp-1" "$$d/cmp-4" && echo "examples-smoke: mlops output identical at -shards 1 and 4"

# The whole paper report at a small scale, at the default worker count
# and on one worker: every parallel stage runs GOMAXPROCS workers and
# promises the same bytes at any count, so the two outputs must be
# identical once the dashboard's shard timing lines are dropped.
repro-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/memfp" ./cmd/memfp && \
	"$$d/memfp" repro -scale 0.02 -seed 42 > "$$d/out-default" && \
	GOMAXPROCS=1 "$$d/memfp" repro -scale 0.02 -seed 42 > "$$d/out-1" && \
	grep -v '^shard [0-9]*:' "$$d/out-default" > "$$d/cmp-default" && \
	grep -v '^shard [0-9]*:' "$$d/out-1" > "$$d/cmp-1" && \
	cmp "$$d/cmp-default" "$$d/cmp-1" && echo "repro-smoke: report identical at default workers and GOMAXPROCS=1"

# Run every shipped chaos scenario through the real serving stack; fails
# if any scenario misses its assertions. (TestShippedScenariosValidate
# already parses and validates every shipped file.) The reports go to a
# temporary directory removed on exit.
scenario-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) run ./cmd/memfp simulate -o "$$d" scenarios/*.yaml

# Process-level distribution smoke: replay the same tiny fleet through
# the real mlopsd binary twice — single process, then control plane +
# two loopback node daemons — and require byte-identical alarm logs,
# plus clean SIGTERM shutdown of the daemons.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# The outside-input path of the BMC text log: a generated log and its
# line-reversed copy must analyze to the same bytes, since the reader bulk
# loads each DIMM's lines and sorts them once, whatever order they came in.
log-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/memfp" ./cmd/memfp && \
	"$$d/memfp" generate -platform Intel_Purley -scale 0.05 -seed 42 -out "$$d/fwd.log" && \
	tac "$$d/fwd.log" > "$$d/rev.log" && \
	"$$d/memfp" analyze -in "$$d/fwd.log" > "$$d/out-fwd" && \
	"$$d/memfp" analyze -in "$$d/rev.log" > "$$d/out-rev" && \
	cmp "$$d/out-fwd" "$$d/out-rev" && echo "log-smoke: analyze output identical on the log and its reversed copy"

ci: build vet fmt bench-check cross-check test-race fuzz-short examples-smoke repro-smoke scenario-smoke daemon-smoke log-smoke test
