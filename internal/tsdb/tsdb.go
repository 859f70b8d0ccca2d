// Package tsdb is an embedded, stdlib-only time-series store for the power
// histories HighRPM restores. The cluster service computes a 1 Sa/s
// estimate per node (§4.2 TRR, §4.3 SRR) — this package keeps those
// estimates so operators can ask "what did node-17 draw between 10:00 and
// 10:05, split into CPU/MEM?" instead of watching the samples scroll by.
//
// Layout: one shard per node ID with its own mutex (ingest for different
// nodes never contends), five channels per shard (p_node, p_cpu, p_mem,
// p_node_prime, ipmi), and per channel a raw 1 s series plus incrementally
// maintained 10 s and 60 s rollups (min/mean/max/count per bucket).
// Series are rings of Gorilla-compressed blocks (see gorilla.go); the
// encoding is lossless, so raw queries return bit-identical float64
// values, NaN gaps included. Retention is a per-resolution point budget
// with oldest-block eviction.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Channel names one stored power series per node.
type Channel string

// The five channels recorded per node.
const (
	// ChanPNode is the restored 1 Sa/s node power (IM reading on seconds
	// that have one, DynamicTRR prediction otherwise).
	ChanPNode Channel = "p_node"
	// ChanPCPU is the SRR CPU component.
	ChanPCPU Channel = "p_cpu"
	// ChanPMEM is the SRR memory component.
	ChanPMEM Channel = "p_mem"
	// ChanPNodePrime is the P'_Node trend feature (the last IM reading
	// extrapolated by the inter-reading slope) fed to DynamicTRR.
	ChanPNodePrime Channel = "p_node_prime"
	// ChanIPMI is the sparse IM reading itself; NaN on the seconds without
	// one (the common case — that is the whole problem).
	ChanIPMI Channel = "ipmi"
)

var channelOrder = [...]Channel{ChanPNode, ChanPCPU, ChanPMEM, ChanPNodePrime, ChanIPMI}

// NumChannels is the number of series stored per node.
const NumChannels = len(channelOrder)

// Channels lists the stored channels in ingest order.
func Channels() []Channel {
	out := make([]Channel, NumChannels)
	copy(out, channelOrder[:])
	return out
}

func channelIndex(ch Channel) (int, error) {
	for i, c := range channelOrder {
		if c == ch {
			return i, nil
		}
	}
	return 0, fmt.Errorf("tsdb: unknown channel %q", ch)
}

// Resolution is a query granularity in seconds.
type Resolution int

// The three stored resolutions.
const (
	// Raw is the ingested 1 Sa/s series, returned bit-exactly.
	Raw Resolution = 1
	// TenSeconds buckets raw points into 10 s min/mean/max rollups.
	TenSeconds Resolution = 10
	// Minute buckets raw points into 60 s min/mean/max rollups.
	Minute Resolution = 60
)

// Resolutions lists the stored resolutions, finest first.
func Resolutions() []Resolution { return []Resolution{Raw, TenSeconds, Minute} }

// ParseResolution validates a resolution given in seconds; 0 selects Raw.
func ParseResolution(seconds int) (Resolution, error) {
	switch Resolution(seconds) {
	case Raw, TenSeconds, Minute:
		return Resolution(seconds), nil
	case 0:
		return Raw, nil
	}
	return 0, fmt.Errorf("tsdb: unsupported resolution %ds (want 1, 10 or 60)", seconds)
}

// Sample is one second of restored power for one node. IPMI is NaN on
// seconds without an IM reading; NaN round-trips losslessly.
type Sample struct {
	PNode      float64
	PCPU       float64
	PMEM       float64
	PNodePrime float64
	IPMI       float64
}

// Options sizes a Store.
type Options struct {
	// BlockPoints is the number of points per compressed block (the
	// eviction granule). Values above half the smallest retention budget
	// are clamped so retention stays meaningful.
	BlockPoints int
	// RetainRaw / Retain10s / Retain60s are per-series point budgets for
	// the three resolutions; 0 keeps everything.
	RetainRaw int
	Retain10s int
	Retain60s int
	// CachePoints budgets the decoded-block cache in points: Gorilla
	// blocks touched by queries, the open one included, are kept decoded
	// (LRU) so a repeat read decodes only the points appended since the
	// last one. 0 selects DefaultCachePoints; negative disables the cache.
	CachePoints int

	// Dir is the durability directory holding the write-ahead log and
	// snapshots. Only Open uses it; New always builds a memory-only store.
	Dir string
	// Fsync selects when the WAL reaches stable storage (see FsyncPolicy);
	// the zero value is FsyncBatch.
	Fsync FsyncPolicy
	// SnapshotEvery is the automatic snapshot cadence in WAL records (one
	// record per Ingest). 0 selects DefaultSnapshotEvery; negative
	// disables automatic snapshots (Snapshot still works manually).
	SnapshotEvery int
	// FlushEvery is the FsyncBatch flush interval — the loss bound under
	// that policy. 0 selects DefaultFlushEvery.
	FlushEvery time.Duration
}

// DefaultCachePoints is the default decoded-block cache budget: a million
// decoded points (~16 MiB of raw points) — a day of 1 Sa/s history for a
// ten-node cluster stays hot.
const DefaultCachePoints = 1 << 20

// DefaultOptions retains a day of raw samples, a week of 10 s buckets and
// a month of 60 s buckets per node channel.
func DefaultOptions() Options {
	return Options{
		BlockPoints: 512,
		RetainRaw:   86400,
		Retain10s:   60480,
		Retain60s:   43200,
		CachePoints: DefaultCachePoints,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BlockPoints <= 0 {
		o.BlockPoints = d.BlockPoints
	}
	if o.RetainRaw < 0 {
		o.RetainRaw = 0
	}
	if o.Retain10s < 0 {
		o.Retain10s = 0
	}
	if o.Retain60s < 0 {
		o.Retain60s = 0
	}
	if o.CachePoints == 0 {
		o.CachePoints = DefaultCachePoints
	}
	if o.CachePoints < 0 {
		o.CachePoints = 0 // disabled
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.SnapshotEvery < 0 {
		o.SnapshotEvery = 0 // automatic snapshots disabled
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = DefaultFlushEvery
	}
	return o
}

// blockPointsFor clamps the block size so a series can actually honour its
// retention budget (eviction is whole-block).
func blockPointsFor(blockPoints, maxPoints int) int {
	if maxPoints > 0 && blockPoints > maxPoints/2 {
		blockPoints = maxPoints / 2
		if blockPoints < 16 {
			blockPoints = 16
		}
	}
	return blockPoints
}

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("tsdb: store is closed")

// channelSeries is one channel of one node: the raw series plus its
// rollups.
type channelSeries struct {
	raw *series
	r10 *rollup
	r60 *rollup
}

func newChannelSeries(o Options, evicted *atomic.Int64, cache *blockCache) *channelSeries {
	cs := &channelSeries{
		raw: newSeries(1, blockPointsFor(o.BlockPoints, o.RetainRaw), o.RetainRaw),
		r10: newRollup(10_000, blockPointsFor(o.BlockPoints, o.Retain10s), o.Retain10s),
		r60: newRollup(60_000, blockPointsFor(o.BlockPoints, o.Retain60s), o.Retain60s),
	}
	cs.raw.evicted = evicted
	cs.r10.ser.evicted = evicted
	cs.r60.ser.evicted = evicted
	cs.raw.cache = cache
	cs.r10.ser.cache = cache
	cs.r60.ser.cache = cache
	return cs
}

func (cs *channelSeries) add(t int64, v float64) {
	var buf [1]float64
	buf[0] = v
	cs.raw.append(t, buf[:])
	cs.r10.add(t, v)
	cs.r60.add(t, v)
}

func (cs *channelSeries) rollupFor(res Resolution) *rollup {
	if res == Minute {
		return cs.r60
	}
	return cs.r10
}

// shard holds one node's series under its own lock, so ingest from
// different nodes never serialises.
type shard struct {
	mu    sync.Mutex
	chans [NumChannels]*channelSeries
}

func newShard(o Options, evicted *atomic.Int64, cache *blockCache) *shard {
	sh := &shard{}
	for i := range sh.chans {
		sh.chans[i] = newChannelSeries(o, evicted, cache)
	}
	return sh
}

// Store is the embedded time-series store. All methods are safe for
// concurrent use.
type Store struct {
	opts   Options
	mu     sync.RWMutex // guards the shard map, not the shards
	shards map[string]*shard
	closed atomic.Bool

	// cache is the store-wide decoded-block cache shared by every series;
	// nil when Options.CachePoints is negative.
	cache *blockCache

	// Activity counters surfaced through Stats (and from there the obs
	// /metrics endpoint): ingested samples, served point reads, points
	// returned, and raw+rollup points evicted by retention.
	ingested  atomic.Int64
	queries   atomic.Int64
	pointsOut atomic.Int64
	evicted   atomic.Int64

	// Durability state, set only by Open; all nil/zero on a memory-only
	// store. snapMu serialises Snapshot (and the pruning it does);
	// nextSnapAt is the WAL sequence that triggers the next automatic
	// snapshot; flushStop/flushDone bracket the FsyncBatch flusher.
	wal          *wal
	dir          string
	snapMu       sync.Mutex
	replayed     atomic.Int64
	snapshots    atomic.Int64
	lastSnapUnix atomic.Int64 // ms since epoch of the newest snapshot; 0 none
	nextSnapAt   atomic.Uint64
	flushStop    chan struct{}
	flushDone    chan struct{}
}

// New creates an empty store.
func New(opts Options) *Store {
	st := &Store{opts: opts.withDefaults(), shards: map[string]*shard{}}
	if st.opts.CachePoints > 0 {
		st.cache = newBlockCache(st.opts.CachePoints)
	}
	return st
}

// Options reports the store's effective (defaulted) options.
func (st *Store) Options() Options { return st.opts }

func (st *Store) shardFor(node string) *shard {
	st.mu.RLock()
	sh := st.shards[node]
	st.mu.RUnlock()
	if sh != nil {
		return sh
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sh = st.shards[node]; sh == nil {
		sh = newShard(st.opts, &st.evicted, st.cache)
		st.shards[node] = sh
	}
	return sh
}

// Ingest records one second of restored power for node. t is in seconds
// (stored at millisecond resolution); values round-trip bit-exactly.
// Ingest for distinct nodes runs concurrently — only the node's own shard
// is locked. On a durable store the sample is logged to the WAL before it
// touches the in-memory series; a WAL error fails the ingest without
// applying anything.
func (st *Store) Ingest(node string, t float64, s Sample) error {
	if st.closed.Load() {
		return ErrClosed
	}
	ts := int64(math.Round(t * 1000))
	vals := [NumChannels]float64{s.PNode, s.PCPU, s.PMEM, s.PNodePrime, s.IPMI}
	seq, err := st.ingest(node, ts, &vals, true)
	if err != nil {
		return err
	}
	st.maybeSnapshot(seq)
	return nil
}

// ingest applies one sample under the node's shard lock. WAL replay calls
// it with logWAL false (the record is already durable); live Ingest logs
// first, so the WAL is always a superset of the in-memory state. Holding
// the shard lock across both keeps per-node WAL order identical to apply
// order.
func (st *Store) ingest(node string, ts int64, vals *[NumChannels]float64, logWAL bool) (uint64, error) {
	sh := st.shardFor(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st.closed.Load() {
		return 0, ErrClosed
	}
	var seq uint64
	if logWAL && st.wal != nil {
		var err error
		if seq, err = st.wal.append(node, ts, vals); err != nil {
			return 0, err
		}
	}
	for i, v := range vals {
		sh.chans[i].add(ts, v)
	}
	st.ingested.Add(1)
	return seq, nil
}

// Nodes lists the node IDs with recorded history, sorted.
func (st *Store) Nodes() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.shards))
	for n := range st.shards {
		out = append(out, n)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Close seals the open rollup buckets and refuses further ingest; on a
// durable store it then stops the flusher and drains the WAL (flush +
// fsync + close), so a clean shutdown loses nothing regardless of fsync
// policy. Queries keep working on the frozen history. Close is idempotent.
func (st *Store) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	st.mu.RLock()
	shards := make([]*shard, 0, len(st.shards))
	//lint:ignore maporder shards are independent; seal order does not matter
	for _, sh := range st.shards {
		shards = append(shards, sh)
	}
	st.mu.RUnlock()
	for _, sh := range shards {
		sh.mu.Lock()
		for _, cs := range sh.chans {
			cs.r10.flush()
			cs.r60.flush()
		}
		sh.mu.Unlock()
	}
	if st.flushStop != nil {
		close(st.flushStop)
		<-st.flushDone
	}
	if st.wal != nil {
		return st.wal.close()
	}
	return nil
}
