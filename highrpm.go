// Package highrpm is the public API of the HighRPM reproduction — a
// high-resolution power monitoring framework that combines coarse
// integrated measurement (BMC/IPMI node power at ≤ 0.1 Sa/s) with software
// power modeling to restore temporal resolution (1 Sa/s node power) and
// spatial resolution (per-component CPU and memory power).
//
// The package re-exports the part of the internal packages that the
// commands, examples and benchmark harness actually call — a name lives
// here because a caller spells it or a function that stays needs it in its
// signature:
//
//   - Training and restoration: Train, Options, Model (its Static, Dynamic
//     and SRR fields are the TRR and SRR models), SaveModel/LoadModel.
//   - Streaming monitoring: Monitor (one node), the cluster Service with its
//     Agent / ResilientAgent clients (many nodes over TCP), and the fleet
//     router that shards services.
//   - Power history: Store (in-memory or durable), its channels,
//     resolutions and fsync policy.
//   - The simulated evaluation platforms: ARMPlatform, X86Platform, the 96
//     benchmark workloads, the IPMI sensor, and the power-capping governor
//     policies.
//   - Dataset construction: suite generation and the Table 3 combinations.
//   - Metrics: MAPE/RMSE/MAE/R² evaluation.
//   - Observability: a stdlib-only metric registry and HTTP server
//     (Prometheus /metrics, JSON series endpoints, health probes).
//
// The GPU extension (§6.4.4) is not re-exported; examples/gpu imports
// internal/gpuext and internal/core directly.
//
// See examples/quickstart for a five-minute tour and DESIGN.md for the
// paper-to-module map.
package highrpm

import (
	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/fleet"
	"highrpm/internal/governor"
	"highrpm/internal/obs"
	"highrpm/internal/platform"
	"highrpm/internal/stats"
	"highrpm/internal/tsdb"
	"highrpm/internal/workload"
)

// Core framework types.
type (
	// Model is a trained HighRPM instance: StaticTRR + DynamicTRR + SRR.
	Model = core.HighRPM
	// Options configures training (miss interval, network sizes, active
	// learning).
	Options = core.Options
	// Monitor is the streaming per-node form of a trained Model.
	Monitor = core.Monitor
	// RestoreMode selects StaticTRR or DynamicTRR restoration.
	RestoreMode = core.RestoreMode
)

// Restoration modes.
const (
	// ModeStatic restores with StaticTRR (offline log analysis).
	ModeStatic = core.ModeStatic
	// ModeDynamic restores with DynamicTRR (online monitoring).
	ModeDynamic = core.ModeDynamic
)

// Train fits a HighRPM model on labeled initial samples (§4.1 initial
// learning stage, plus active learning when enabled in opts).
func Train(initial *Set, opts Options) (*Model, error) { return core.Train(initial, opts) }

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewMonitor wraps a trained model for streaming use.
func NewMonitor(m *Model) *Monitor { return core.NewMonitor(m) }

// SaveModel writes a trained model to path as JSON.
func SaveModel(path string, m *Model) error { return core.Save(path, m) }

// LoadModel reads a trained model from path.
func LoadModel(path string) (*Model, error) { return core.Load(path) }

// Dataset types.
type (
	// Set is an ordered collection of (PMC, power) samples.
	Set = dataset.Set
	// GenerateConfig controls evaluation-trace collection.
	GenerateConfig = dataset.GenerateConfig
	// Combo is one Table 3 train/test combination.
	Combo = dataset.Combo
)

// GenerateSuite simulates a benchmark suite into 1 Sa/s samples.
func GenerateSuite(cfg GenerateConfig, suite string) (*Set, error) {
	return dataset.GenerateSuite(cfg, suite)
}

// Combos returns the seven Table 3 combinations.
func Combos() []Combo { return dataset.Combos() }

// DefaultGenerateConfig mirrors the paper's §5.3 collection settings.
func DefaultGenerateConfig() GenerateConfig { return dataset.DefaultGenerateConfig() }

// Platform types.
type (
	// PlatformConfig describes a simulated node.
	PlatformConfig = platform.Config
	// Node is a running node simulation.
	Node = platform.Node
	// Trace is a completed simulation run.
	Trace = platform.Trace
	// IPMISensor models the sparse BMC/IPMI measurement path.
	IPMISensor = platform.IPMISensor
)

// ARMPlatform returns the paper's ARM evaluation node model.
func ARMPlatform() PlatformConfig { return platform.ARMConfig() }

// X86Platform returns the §6.3 x86/RAPL node model.
func X86Platform() PlatformConfig { return platform.X86Config() }

// NewNode creates a simulated node.
func NewNode(cfg PlatformConfig, seed int64) (*Node, error) { return platform.NewNode(cfg, seed) }

// NewIPMISensor returns the default sparse node-power sensor.
func NewIPMISensor(intervalSeconds float64, seed int64) *IPMISensor {
	return platform.NewIPMISensor(intervalSeconds, seed)
}

// FromTrace converts a simulation trace into dataset samples.
func FromTrace(tr *Trace, suite, bench string) *Set { return dataset.FromTrace(tr, suite, bench) }

// Benchmark is a named phase-programmed workload.
type Benchmark = workload.Benchmark

// Benchmarks returns the full 96-benchmark evaluation suite.
func Benchmarks() []Benchmark { return workload.Suite() }

// FindBenchmark looks a benchmark up by name (e.g. "HPCC/FFT").
func FindBenchmark(name string) (Benchmark, error) { return workload.Find(name) }

// SuiteNames returns the seven suite names of Table 3.
func SuiteNames() []string { return workload.SuiteNames() }

// Metrics bundles MAPE/RMSE/MAE/R².
type Metrics = stats.Metrics

// Evaluate scores predictions against observations.
func Evaluate(observed, predicted []float64) Metrics { return stats.Evaluate(observed, predicted) }

// Cluster types: the §4.1 control-node service deployment.
type (
	// Service is the control-node HighRPM service shared by compute nodes.
	Service = cluster.Service
	// ServiceOptions hardens a Service against slow, dead, or hostile
	// peers: per-connection read/write deadlines, a frame-size cap, and a
	// connection cap.
	ServiceOptions = cluster.ServiceOptions
	// Agent is a compute-node client of the service.
	Agent = cluster.Agent
	// ResilientAgent wraps Agent with reconnection, bounded retries, and
	// the §6.4.6 degraded-mode fallback to local inference.
	ResilientAgent = cluster.ResilientAgent
	// AgentOptions tunes a ResilientAgent's backoff, retry, and buffering
	// behaviour.
	AgentOptions = cluster.AgentOptions
	// BatchOptions tunes agent-side sample coalescing (Agent.Record /
	// ResilientAgent.Record flush a KindRecordBatch once MaxSamples are
	// pending or the oldest has waited MaxDelay).
	BatchOptions = cluster.BatchOptions
	// Estimate is the service's restored power for one sample.
	Estimate = cluster.Estimate
	// QueryRequest asks the service for a window of stored power history.
	QueryRequest = cluster.QueryRequest
	// Series answers a QueryRequest with decoded points.
	Series = cluster.SeriesBody
)

// NewService wraps a trained model as a network service with default
// robustness options.
func NewService(m *Model) *Service { return cluster.NewService(m) }

// NewServiceWith wraps a trained model as a network service with explicit
// robustness options.
func NewServiceWith(m *Model, opts ServiceOptions) *Service { return cluster.NewServiceWith(m, opts) }

// DefaultServiceOptions returns the deployment defaults for ServiceOptions.
func DefaultServiceOptions() ServiceOptions { return cluster.DefaultServiceOptions() }

// DialService connects a compute-node agent to the service, offering the
// binary codec and falling back to JSON against older services.
func DialService(addr, nodeID string) (*Agent, error) { return cluster.Dial(addr, nodeID) }

// DialResilientService connects a fault-tolerant agent: like DialService
// it offers the binary codec, and it reconnects with jittered exponential
// backoff (the jitter seeded from addr and nodeID), retries failed sends,
// and after repeated failures serves estimates locally from the fetched
// model while buffering samples for replay.
func DialResilientService(addr, nodeID string, opts AgentOptions) (*ResilientAgent, error) {
	return cluster.DialResilient(addr, nodeID, opts)
}

// DefaultAgentOptions returns the deployment defaults for AgentOptions.
func DefaultAgentOptions() AgentOptions { return cluster.DefaultAgentOptions() }

// Time-series store: the embedded, Gorilla-compressed power-history
// substrate behind Service (queryable over TCP via Agent.Query and the
// highrpm-query CLI) and usable standalone for local recording.
type (
	// Store holds per-node power history: five channels per node at raw
	// 1 s resolution plus 10 s and 60 s min/mean/max rollups.
	Store = tsdb.Store
	// StoreOptions sizes a Store (block size, per-resolution retention).
	StoreOptions = tsdb.Options
	// StoreSample is one second of restored power for one node.
	StoreSample = tsdb.Sample
	// StorePoint is one decoded sample or rollup bucket.
	StorePoint = tsdb.Point
	// StoreChannel names one stored series per node.
	StoreChannel = tsdb.Channel
)

// Two of the five channels a Store records per node; StoreChannels lists
// them all.
const (
	ChannelPNode = tsdb.ChanPNode
	ChannelPCPU  = tsdb.ChanPCPU
)

// Query granularities: raw seconds and the 10 s rollup.
const (
	ResolutionRaw = tsdb.Raw
	Resolution10s = tsdb.TenSeconds
)

// NewStore creates an empty power-history store. Query it with
// Store.Query / Store.Aggregate.
func NewStore(opts StoreOptions) *Store { return tsdb.New(opts) }

// DefaultStoreOptions retains a day of raw samples, a week of 10 s buckets
// and a month of 60 s buckets per node channel.
func DefaultStoreOptions() StoreOptions { return tsdb.DefaultOptions() }

// StoreChannels lists the stored channels in ingest order.
func StoreChannels() []StoreChannel { return tsdb.Channels() }

// Durability: a Store opened with a data directory writes every ingest to
// a CRC-checked write-ahead log and periodically compacts the log into a
// full-state snapshot; OpenStore replays both on startup.
type (
	// FsyncPolicy selects when the WAL is fsynced (batch/always/never).
	FsyncPolicy = tsdb.FsyncPolicy
	// StoreRecovery reports what OpenStore restored from disk and any
	// corruption it tolerated along the way.
	StoreRecovery = tsdb.Recovery
)

// FsyncBatch is the default WAL policy; ParseFsyncPolicy names the others.
const FsyncBatch = tsdb.FsyncBatch

// OpenStore opens (or creates) a durable store rooted at opts.Dir,
// replaying the newest valid snapshot plus the WAL tail. Data sealed by
// an fsync is never lost; with the default batch policy a crash loses at
// most one flush interval of samples.
func OpenStore(opts StoreOptions) (*Store, *StoreRecovery, error) { return tsdb.Open(opts) }

// ParseFsyncPolicy parses "batch", "always" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return tsdb.ParseFsyncPolicy(s) }

// NewDurableService wraps a trained model with a durable history store
// rooted at storeOpts.Dir; Shutdown drains the WAL so a graceful stop
// loses nothing.
func NewDurableService(m *Model, opts ServiceOptions, storeOpts StoreOptions) (*Service, *StoreRecovery, error) {
	return cluster.NewDurableService(m, opts, storeOpts)
}

// Observability types: the embeddable metric registry and HTTP exposition
// server (see examples/observability). A Service exports itself with
// Service.RegisterMetrics; ResilientAgent activity is published through
// AgentMetrics.Observe from the goroutine that owns the agent.
type (
	// MetricsRegistry holds counters, gauges and histograms and renders
	// them deterministically in the Prometheus text format.
	MetricsRegistry = obs.Registry
	// MetricsServer serves /metrics, /api/v1/query, /api/v1/series,
	// /healthz and /readyz (plus optional pprof) over net/http.
	MetricsServer = obs.Server
	// MetricsServerOptions configures the MetricsServer (the pprof gate).
	MetricsServerOptions = obs.ServerOptions
	// Health is a component's readiness answer, including the
	// ready-but-degraded posture.
	Health = obs.Health
	// AgentMetrics exports ResilientAgent mode and counters as gauges.
	AgentMetrics = cluster.AgentMetrics
)

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsServer wraps a registry in the observability HTTP server.
func NewMetricsServer(reg *MetricsRegistry, opts MetricsServerOptions) *MetricsServer {
	return obs.NewServer(reg, opts)
}

// DefaultMetricsServerOptions returns the deployment defaults.
func DefaultMetricsServerOptions() MetricsServerOptions { return obs.DefaultServerOptions() }

// NewAgentMetrics registers the highrpm_agent_* gauges on reg.
func NewAgentMetrics(reg *MetricsRegistry) *AgentMetrics { return cluster.NewAgentMetrics(reg) }

// Fleet types: the horizontal scale-out layer fronting N backend services
// (see examples/fleet). A FleetRouter speaks the same wire protocol as a
// Service, so existing agents dial it unchanged: writes are consistent-hash
// routed (optionally replicated) to backend shards, aggregate reads
// scatter-gather every shard and merge bit-identically to a single
// service's answer.
type (
	// FleetRouter is the sharding front-end.
	FleetRouter = fleet.Router
	// FleetTopology lists the backend shards.
	FleetTopology = fleet.Topology
	// FleetShard names one backend service.
	FleetShard = fleet.Shard
	// TopologyOptions tunes ring placement, replication and pooling.
	TopologyOptions = fleet.TopologyOptions
	// FleetStats is the router's own routing/replication accounting.
	FleetStats = fleet.Stats
)

// NewRouter builds a fleet router over the given topology. Call Listen to
// serve the cluster wire protocol.
func NewRouter(top FleetTopology, opts TopologyOptions) (*FleetRouter, error) {
	return fleet.NewRouter(top, opts)
}

// DefaultTopologyOptions returns the deployment defaults (64 virtual
// nodes per shard, no replication).
func DefaultTopologyOptions() TopologyOptions { return fleet.DefaultTopologyOptions() }

// Governor types: power-capping control stacks built on HighRPM estimates
// (the Fig. 1 motivation turned into an application; see examples/powercap).
type (
	// GovernorPolicy decides DVFS steps from power estimates.
	GovernorPolicy = governor.Policy
	// GovernorSource supplies the governor's per-second power estimate.
	GovernorSource = governor.Source
	// GovernorOutcome summarises a governed run.
	GovernorOutcome = governor.Outcome
	// HysteresisPolicy is the classic step governor with a hysteresis band.
	HysteresisPolicy = governor.Hysteresis
	// PredictivePolicy preempts cap crossings from the estimate's slope.
	PredictivePolicy = governor.Predictive
)

// NewModelSource feeds a governor HighRPM's per-second restored power.
func NewModelSource(m *Model) GovernorSource { return governor.NewModelSource(m) }

// RunGoverned executes a benchmark under a capping policy and source.
func RunGoverned(n *Node, b Benchmark, src GovernorSource, pol GovernorPolicy, cfg governor.Config) (GovernorOutcome, error) {
	return governor.Run(n, b, src, pol, cfg)
}

// GovernorConfig drives RunGoverned.
type GovernorConfig = governor.Config
