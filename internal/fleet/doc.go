// Package fleet is HighRPM's horizontal scale-out layer: a Router fronts
// N cluster.Service backends and speaks the same wire protocol agents
// already use, so a fleet is a drop-in replacement for a single service.
//
// Node IDs are consistent-hash-sharded across the backends (ring.go):
// each shard contributes 64 virtual nodes to a deterministic hash ring
// (FNV-64a plus an avalanche finaliser, so sequential node names spread
// evenly), so the same topology always yields the same placement and
// removing a shard moves only that shard's keys. Ingest traffic (Hello,
// and every sample as a RecordBatch, a single one as a batch of one) is
// forwarded over pooled ResilientAgent.SendSamples connections — one per
// (node, shard) so per-node sample order survives
// reconnects, degraded-mode buffering, and in-order replay — with optional
// replication factor R: the ring owner is the primary and the next R-1
// distinct shards clockwise are followers, written synchronously. Only
// the primary runs the models: every request is answered by the primary
// first and forwarded to the followers with its estimates attached, which
// they record while advancing nothing but their monitor state.
// When the primary can only answer from its local model
// snapshot, the first follower with a live service answer takes over the
// reply (failover), and the primary's buffered samples replay in order
// once it rejoins, resyncing its model snapshot through the existing
// model-fetch path.
//
// Queries federate instead of forwarding: a single-node KindQuery goes to
// a live replica of its owner, and the shard's reply frame is relayed to
// the front end as it arrived — checked for shape, not decoded, since a
// series travels binary on both hops — while
// the cluster-wide aggregate scatter-gathers every known node's series
// from the shards in parallel and merges them serially in sorted node
// order with tsdb.MergeNodeSeries — the exact accumulation discipline the
// tsdb's own parallel Aggregate uses. Floating-point addition is not
// associative, so that shared merge, run once the full set has arrived, is
// what makes a fleet's QuerySeries, Aggregate and Stats answers
// byte-identical to a single service fed the same samples. Both kinds of
// read share one back hop: a shard is asked for a group of nodes with the
// requests pipelined over its query connection inside a bounded window
// (a single-node query is a group of one), the replies come back in order
// because every server answers a connection's frames in order, and a node
// the group left unanswered — rejected by that shard, or cut off when its
// connection died — is re-read from its next replica on its own. KindStats
// scatter-gathers and sums the per-shard statistics the same way, and
// KindModel answers the first reachable shard's model bytes verbatim. The
// query connection is a plain cluster.Agent: it never degrades, holds no
// model, is closed on a transport error and redialled by the next read. It
// says Hello with an empty node ID, so no shard counts the router as one
// of its nodes.
package fleet
