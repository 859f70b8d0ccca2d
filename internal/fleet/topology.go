package fleet

import (
	"time"

	"highrpm/internal/cluster"
)

// Shard names one backend cluster.Service.
type Shard struct {
	// Name is the stable identity hashed onto the ring: renaming a shard
	// moves its keys, re-addressing it does not.
	Name string
	// Addr is the backend service's "host:port".
	Addr string
}

// Topology is the static shard list a Router fronts. The ring depends
// only on the shard names, so a later pluggable discovery mechanism can
// replace how the list is produced without touching placement.
type Topology struct {
	Shards []Shard
}

const (
	// virtualNodes is the ring points per shard: enough to keep the key
	// distribution within a few percent of even for small fleets, cheap
	// enough that the ring stays a flat sorted slice.
	virtualNodes = 64
	// DefaultDialRetry spaces the dials of a shard's query connection after
	// a failed one. The per-node ingest agents redial on their own backoff
	// (cluster.AgentOptions).
	DefaultDialRetry = time.Second
)

// TopologyOptions tunes a Router.
type TopologyOptions struct {
	// Replication is the number of distinct shards holding each node's
	// stream (R): the ring owner plus R-1 clockwise followers. 0 and 1
	// both mean no replication; values above the shard count are clamped.
	Replication int
	// Agent tunes the pooled backend connections (timeouts, and the
	// per-node agents' backoff, degraded-mode buffering and replay). The
	// zero value means cluster.DefaultAgentOptions.
	Agent cluster.AgentOptions
	// FrontEnd hardens the router's own listener exactly like a service's
	// (read/write deadlines, frame cap, connection cap). The zero value
	// means cluster.DefaultServiceOptions.
	FrontEnd cluster.ServiceOptions
	// DialRetry is how long the router waits after a failed dial of a
	// shard's query connection — which carries reads, stats and the model
	// fetch — before dialing it again (0: DefaultDialRetry).
	DialRetry time.Duration
}

// DefaultTopologyOptions returns deployment defaults: no replication, and
// the cluster layer's default agent and service hardening.
func DefaultTopologyOptions() TopologyOptions {
	return TopologyOptions{
		Replication: 1,
		Agent:       cluster.DefaultAgentOptions(),
		FrontEnd:    cluster.DefaultServiceOptions(),
		DialRetry:   DefaultDialRetry,
	}
}
