#!/usr/bin/env sh
# Repo verification: run before every PR.
#
# Tier-1 (the ROADMAP gate) is `go build ./... && go test ./...`; on top of
# that this script gates formatting (gofmt), vets the tree with both
# `go vet` and the project-specific highrpm-vet analyzers (determinism,
# maporder, floateq, leakcheck, errdrop, layering — see internal/lint),
# and race-checks the concurrent subsystems (the tsdb ingest/query/WAL
# paths including the persisttest crash-injection harness, the cluster
# service + fault-injection harness, the fleet router's replicated
# forwarding and scatter-gather, the obs metric registry and HTTP
# exposition server, the parallel training engine in
# neural/tree/experiments, and the attribution ledger) so
# locking regressions surface immediately. It then fuzzes the
# wire-protocol decoders briefly (JSON envelope, binary framing, and the
# cross-codec agreement law), the connection server's request loop over
# arbitrary frame streams (FuzzServeConn), the durability decoders (WAL
# segment scanner, snapshot loader), and the fleet placement ring, and finishes
# with one pass over the PR 3 training benchmarks (BENCH_pr3.json), the
# PR 4 cluster benchmarks (BENCH_pr4.json), the PR 8 serving hot-path
# benchmarks (BENCH_pr8.json), the PR 9 durability benchmarks
# (BENCH_pr9.json), and the PR 10 fleet routing benchmarks
# (BENCH_pr10.json), all emitted through scripts/bench_json.awk.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== highrpm-vet (project static analysis)"
go run ./cmd/highrpm-vet ./...
echo "== go test"
go test ./...
echo "== go test -race (tsdb incl. persisttest, cluster incl. faultnet, fleet, obs)"
go test -race ./internal/tsdb/... ./internal/cluster/... ./internal/fleet/... ./internal/obs
echo "== go test -race (parallel training: neural, tree, experiments; attribution)"
go test -race ./internal/neural ./internal/tree ./internal/experiments/... ./internal/attribution
echo "== fuzz wire protocol (10s per target)"
go test -run '^$' -fuzz '^FuzzReadEnvelope$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzEnvelopeRoundTrip$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzBinaryEnvelopeRoundTrip$' -fuzztime=10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzCrossCodecSample$' -fuzztime=10s ./internal/cluster
echo "== fuzz shared serve loop (10s)"
go test -run '^$' -fuzz '^FuzzServeConn$' -fuzztime=10s ./internal/cluster
echo "== fuzz durability decoders (10s per target)"
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime=10s ./internal/tsdb
go test -run '^$' -fuzz '^FuzzSnapshotFile$' -fuzztime=10s ./internal/tsdb
echo "== fuzz fleet placement ring (10s)"
go test -run '^$' -fuzz '^FuzzRingPlacement$' -fuzztime=10s ./internal/fleet
echo "== training benchmarks (1 iteration each)"
bench_out="$(go test -run '^$' -bench 'BenchmarkLSTMFit|BenchmarkFineTuneLatency' -benchtime=1x -benchmem ./internal/neural)"
echo "$bench_out"
tree_out="$(go test -run '^$' -bench 'BenchmarkTreeFit' -benchtime=1x -benchmem ./internal/tree)"
echo "$tree_out"
printf '%s\n%s\n' "$bench_out" "$tree_out" | awk -f scripts/bench_json.awk > BENCH_pr3.json
echo "wrote BENCH_pr3.json"
echo "== cluster benchmarks"
cluster_out="$(go test -run '^$' -bench 'BenchmarkAgentSendLoopback$|BenchmarkServiceHandle$' -benchtime=1s -benchmem ./internal/cluster)"
echo "$cluster_out"
printf '%s\n' "$cluster_out" | awk -f scripts/bench_json.awk > BENCH_pr4.json
echo "wrote BENCH_pr4.json"
echo "== serving hot-path benchmarks (binary codec, batching, block cache)"
hot_out="$(go test -run '^$' -bench 'BenchmarkServiceHandleBinary$|BenchmarkRecordBatch$' -benchtime=1s -benchmem ./internal/cluster)"
echo "$hot_out"
cache_out="$(go test -run '^$' -bench 'BenchmarkQueryCached' -benchtime=1s -benchmem ./internal/tsdb)"
echo "$cache_out"
printf '%s\n%s\n' "$hot_out" "$cache_out" | awk -f scripts/bench_json.awk > BENCH_pr8.json
echo "wrote BENCH_pr8.json"
echo "== durability benchmarks (WAL append, recovery, durable ingest)"
wal_out="$(go test -run '^$' -bench 'BenchmarkWALAppend$|BenchmarkRecover$' -benchtime=1s -benchmem ./internal/tsdb)"
echo "$wal_out"
ingest_out="$(go test -run '^$' -bench 'BenchmarkStoreIngest$|BenchmarkStoreIngestWAL$' -benchtime=100000x -benchmem .)"
echo "$ingest_out"
printf '%s\n%s\n' "$wal_out" "$ingest_out" | awk -f scripts/bench_json.awk > BENCH_pr9.json
echo "wrote BENCH_pr9.json"
echo "== fleet routing benchmarks (sharded ingest scaling, scatter-gather)"
fleet_out="$(go test -run '^$' -bench 'BenchmarkRouterIngest|BenchmarkScatterQuery' -benchtime=1s -benchmem ./internal/fleet)"
echo "$fleet_out"
printf '%s\n' "$fleet_out" | awk -f scripts/bench_json.awk > BENCH_pr10.json
echo "wrote BENCH_pr10.json"
echo "verify: OK"
