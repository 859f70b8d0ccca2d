#!/usr/bin/env sh
# Repo verification: run before every PR.
#
# Tier-1 (the ROADMAP gate) is `go build ./... && go test ./...`; on top of
# that this script gates formatting (gofmt), builds the portable kernel path
# for arm64 (vet) and 386 (the whole tree), vets the tree with both
# `go vet` (asmdecl included) and the project-specific highrpm-vet analyzers (determinism,
# maporder, floateq, leakcheck, errdrop — see internal/lint),
# runs every example end to end (each takes about a second, and an
# example that only compiles can rot silently: a refused sample or a
# changed default shows only when it runs), drives one model
# file across binaries (highrpm-trace → highrpm-train → highrpm-analyze)
# and then serves it with highrpm-monitor — the one command that runs the
# ResilientAgent, the only client the monitor has, against a live service
# (two nodes, 30 simulated seconds, binary codec negotiated in Hello) —
# and race-checks the concurrent subsystems (the tsdb ingest/query/WAL
# paths including the persisttest crash-injection harness, plus five more
# runs of TestSnapshotUnderConcurrentIngest, ~2 s: a full block's bytes are
# shared with snapshot cuts while its grown buffer opens the next block,
# and only this test under -race shows a cut reading bytes ingest still
# writes; the cluster service + fault-injection harness, the fleet
# router's replicated forwarding and scatter-gather, the obs metric
# registry and HTTP exposition server, concurrent prediction on one
# fitted neural model, a dynamic Restore beside a Monitor serving the same
# model (TestRestoreConcurrentWithMonitor: restoring only reads the
# model), and the parallel experiment runner) so locking regressions surface
# immediately. Of internal/experiments only the tests that start
# goroutines or share the Workspace split cache are raced (-run
# 'Parallel|WorkspaceCaches', ~1 s): the shape tests and the transcript
# golden train dozens of models on one goroutine each, run once un-raced
# in the `go test ./...` step, and cost minutes under -race for no added
# coverage. It then fuzzes briefly: the wire-protocol decoders (JSON
# envelope, binary framing, and the cross-codec agreement law
# FuzzCrossCodecSample: a JSON single sample against a binary record batch
# of one, decoded field for field and answered by a real Service with the
# same estimate or the same error text), both ends
# of a connection over arbitrary byte streams (FuzzServeConn for the
# server's request loop over a stub handler, FuzzAgentReply for the agent's
# reply path), the same loop with a real Service behind it
# (FuzzServiceConn: the stub answers from its arguments alone, so only a
# real model and store can turn a hostile reading or relayed estimate
# into a NaN estimate or a reply JSON cannot marshal; its seeds are whole
# sessions, so minimising is capped at 1 s as for FuzzUnmarshalMonitor), the
# law the router's verbatim series relay stands on (FuzzSeriesShape: the
# O(1) framing check accepts exactly what the strict decoder does), the
# durability decoders (WAL segment scanner, snapshot loader), the
# decoded-block cache against an uncached store
# (FuzzCachedQueryMatchesUncached: byte-identical answers while seals and
# evictions land between reads), the fleet placement ring, the vector
# forward kernels against the portable ones (FuzzKernels), and the path a
# degraded agent runs on a peer's model file (FuzzUnmarshalMonitor:
# Unmarshal → NewMonitor → Pushes yields an error or estimates, never a
# panic; its seeds are whole model files, so minimising an interesting
# input is capped at 1 s to leave the 10 s for fuzzing). It fails when
# DESIGN.md outgrows its 40 KB budget (40 960 bytes) or README.md its
# 32 KB one (32 768 bytes). It prints, without gating on them, the two
# size counts ROADMAP.md tracks: non-test Go outside bench/ and testdata,
# and tests (dot-directories such as .bench_build are skipped). The served
# DynamicTRR shape is pinned in the `go test` step: TestHyperKnee fails
# when DefaultDynamicTRROptions().Layers stops being the lowest-MAPE depth
# of the §6.4.3 `hyper` sweep. Performance is not measured here:
# `bash bench/run.sh` is the repo's one benchmark.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== DESIGN.md within its 40 KB budget"
design_bytes=$(wc -c < DESIGN.md)
if [ "$design_bytes" -gt 40960 ]; then
    echo "DESIGN.md is $design_bytes bytes, over its 40960-byte budget" >&2
    exit 1
fi
echo "== README.md within its 32 KB budget"
readme_bytes=$(wc -c < README.md)
if [ "$readme_bytes" -gt 32768 ]; then
    echo "README.md is $readme_bytes bytes, over its 32768-byte budget" >&2
    exit 1
fi
echo "== size (reported, not gated)"
go_files() { find . -name '*.go' ! -path './.*' ! -path './bench/*' ! -path '*/testdata/*' "$@"; }
echo "   non-test Go outside bench/ and testdata: $(go_files ! -name '*_test.go' | xargs cat | wc -l) lines"
echo "   tests: $(go_files -name '*_test.go' | xargs cat | wc -l) lines"
echo "== go build"
go build ./...
echo "== scripts/benchpair.sh parses"
bash -n scripts/benchpair.sh
echo "== the portable kernel path builds off amd64 (internal/neural has amd64 assembly)"
GOARCH=arm64 go vet ./internal/neural
GOARCH=386 go build ./...
echo "== go vet"
go vet ./...
echo "== highrpm-vet (project static analysis)"
go run ./cmd/highrpm-vet ./...
echo "== go test"
go test ./...
echo "== run every example (~1 s each)"
for ex in examples/*/; do
    echo "   $ex"
    go run "./$ex" >/dev/null
done
echo "== a model file written by highrpm-train is read by highrpm-analyze and served by highrpm-monitor (~3 s)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/highrpm-trace -bench HPCG/hpcg -duration 120 -o "$tmp/run.csv"
go run ./cmd/highrpm-train -samples 60 -suites SPEC,HPCC -out "$tmp/m.json"
go run ./cmd/highrpm-analyze -model "$tmp/m.json" "$tmp/run.csv" >/dev/null
go run ./cmd/highrpm-monitor -model "$tmp/m.json" -nodes 2 -duration 30 -quiet >/dev/null
echo "== go test -race (tsdb incl. persisttest, cluster incl. faultnet, fleet, obs)"
go test -race ./internal/tsdb/... ./internal/cluster/... ./internal/fleet/... ./internal/obs
go test -race -count=5 -run '^TestSnapshotUnderConcurrentIngest$' ./internal/tsdb
echo "== go test -race (concurrent prediction, Restore beside a Monitor, parallel experiments)"
go test -race ./internal/neural
go test -race -run '^TestRestoreConcurrentWithMonitor$' ./internal/core
go test -race -run 'Parallel|WorkspaceCaches' ./internal/experiments/...
echo "== fuzz wire protocol (10s per target)"
go test -run '^$' -fuzz '^FuzzReadEnvelope$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzEnvelopeRoundTrip$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzBinaryEnvelopeRoundTrip$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzCrossCodecSample$' -fuzztime=10s ./internal/cluster
echo "== fuzz shared serve loop, a service behind it, and agent reply path (10s per target)"
go test -run '^$' -fuzz '^FuzzServeConn$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzServiceConn$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
go test -run '^$' -fuzz '^FuzzAgentReply$' -fuzztime=10s ./internal/cluster
echo "== fuzz the series relay's shape check (10s)"
go test -run '^$' -fuzz '^FuzzSeriesShape$' -fuzztime=10s ./internal/cluster
echo "== fuzz durability decoders (10s per target)"
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime=10s ./internal/tsdb
go test -run '^$' -fuzz '^FuzzSnapshotFile$' -fuzztime=10s ./internal/tsdb
echo "== fuzz the decoded-block cache against an uncached store (10s)"
go test -run '^$' -fuzz '^FuzzCachedQueryMatchesUncached$' -fuzztime=10s ./internal/tsdb
echo "== fuzz fleet placement ring (10s)"
go test -run '^$' -fuzz '^FuzzRingPlacement$' -fuzztime=10s ./internal/fleet
echo "== fuzz the vector forward kernels against the portable ones (10s)"
go test -run '^$' -fuzz '^FuzzKernels$' -fuzztime=10s ./internal/neural
echo "== fuzz a peer's model file down the degraded agent's path (10s)"
go test -run '^$' -fuzz '^FuzzUnmarshalMonitor$' -fuzztime=10s -fuzzminimizetime=1s ./internal/core
echo "verify: OK"
