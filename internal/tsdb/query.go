package tsdb

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one decoded sample or rollup bucket. At Raw resolution Value is
// the ingested float64 (bit-exact, NaN included), Min == Max == Value and
// Count is 1. At rollup resolutions Value/Min/Max summarise the non-NaN
// raw points in the bucket and Count is how many there were; a bucket
// whose window held only NaN gaps has NaN stats and Count 0.
type Point struct {
	Time  float64 // seconds; bucket start for rollups
	Value float64 // raw value, or bucket mean
	Min   float64
	Max   float64
	Count int
}

// clampMillis converts float milliseconds to int64, saturating instead of
// overflowing so callers can pass ±huge window bounds ("everything").
func clampMillis(ms float64) int64 {
	if math.IsNaN(ms) {
		return 0
	}
	if ms >= math.MaxInt64 {
		return math.MaxInt64
	}
	if ms <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(ms)
}

func validRes(res Resolution) error {
	switch res {
	case Raw, TenSeconds, Minute:
		return nil
	}
	return fmt.Errorf("tsdb: unsupported resolution %ds (want 1, 10 or 60)", int(res))
}

// walk is the store's one read path for a node's channel: it validates the
// request, counts it in Stats.Queries and — under the node's shard lock —
// calls sink.Begin with an upper bound on the points in the window (the
// overlapping blocks' point counts, known without decoding anything), then
// hands the sink every point with from ≤ t ≤ to (seconds) at the requested
// resolution, oldest first; what it handed over lands in
// Stats.PointsReturned. Raw points leave as runs (sink.Raw), one per
// overlapping block, straight from the decoded block; rollup buckets leave
// one Point at a time. Query collects into a slice and WalkSeries hands a
// caller's sink the same walk. The sink runs under the shard lock, so it
// may only touch memory — a sink that blocks on a socket or another lock
// would stall the node's ingest behind a reader.
func (st *Store) walk(node string, ch Channel, from, to float64, res Resolution, sink SeriesSink) error {
	idx, err := channelIndex(ch)
	if err != nil {
		return err
	}
	if err := validRes(res); err != nil {
		return err
	}
	st.mu.RLock()
	sh := st.shards[node]
	st.mu.RUnlock()
	if sh == nil {
		return fmt.Errorf("tsdb: no history for node %q", node)
	}
	fromMs := clampMillis(math.Floor(from * 1000))
	toMs := clampMillis(math.Ceil(to * 1000))
	st.queries.Add(1)
	// An exclusive lock, not a read lock, although walk writes no point:
	// reading a block through the cache extends its entry in place, and
	// two readers of one shard must never extend the same entry at once.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cs := sh.chans[idx]
	emitted := 0
	if res == Raw {
		sink.Begin(node, string(ch), int(res), cs.raw.sizeHint(fromMs, toMs))
		err = cs.raw.query(fromMs, toMs, func(ts []int64, vals []float64) {
			emitted += len(ts)
			sink.Raw(ts, vals)
		})
	} else {
		ru := cs.rollupFor(res)
		sink.Begin(node, string(ch), int(res), ru.ser.sizeHint(fromMs, toMs)+1)
		err = ru.ser.query(fromMs, toMs, func(ts []int64, vals []float64) {
			emitted += len(ts)
			for i, t := range ts {
				v := vals[i*rollupChains : (i+1)*rollupChains]
				sink.Point(Point{
					Time:  float64(t) / 1000,
					Value: v[0], Min: v[1], Max: v[2],
					Count: int(v[3]),
				})
			}
		})
		if err == nil {
			if p, ok := ru.openPoint(fromMs, toMs); ok {
				emitted++
				sink.Point(p)
			}
		}
	}
	st.pointsOut.Add(int64(emitted))
	return err
}

// RawPoint is the Point a raw sample at t milliseconds with value v reads
// as — how a run handed to SeriesSink.Raw widens to points: Min and Max
// are the value, Count is 1.
func RawPoint(t int64, v float64) Point {
	return Point{Time: float64(t) / 1000, Value: v, Min: v, Max: v, Count: 1}
}

// pointSink is the SeriesSink Query collects into.
type pointSink struct{ pts []Point }

func (s *pointSink) Begin(_, _ string, _, n int) { s.pts = make([]Point, 0, n) }
func (s *pointSink) Point(p Point)               { s.pts = append(s.pts, p) }
func (s *pointSink) Raw(tms []int64, vals []float64) {
	for i, t := range tms {
		s.pts = append(s.pts, RawPoint(t, vals[i]))
	}
}

// Query returns node's channel points with from ≤ t ≤ to (seconds) at the
// requested resolution, oldest first. Raw queries decode the exact
// ingested float64s. The node's shard is locked for the duration of the
// decode; other nodes' ingest paths are unaffected. It is the collecting
// sink over walk: the size hint allocates the result slice exactly once,
// so on a cache hit that single make is the query's only per-point
// allocation.
func (st *Store) Query(node string, ch Channel, from, to float64, res Resolution) ([]Point, error) {
	var s pointSink
	if err := st.walk(node, ch, from, to, res, &s); err != nil {
		return nil, err
	}
	return s.pts, nil
}

// Latest returns the newest retained raw point of node's channel without
// reading the whole series: only the youngest non-empty block is walked,
// and with the cache on only the points appended since the last read of
// that block are decoded. It backs the obs /api/v1/query instant endpoint
// and dashboard-style "current power" reads.
func (st *Store) Latest(node string, ch Channel) (Point, error) {
	idx, err := channelIndex(ch)
	if err != nil {
		return Point{}, err
	}
	st.mu.RLock()
	sh := st.shards[node]
	st.mu.RUnlock()
	if sh == nil {
		return Point{}, fmt.Errorf("tsdb: no history for node %q", node)
	}
	// Exclusive, like walk's: reading through the cache extends an entry.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var last Point
	ok, err := sh.chans[idx].raw.latest(func(t int64, vals []float64) { last = RawPoint(t, vals[0]) })
	if err != nil {
		return Point{}, err
	}
	if !ok {
		return Point{}, fmt.Errorf("tsdb: no points for node %q channel %q", node, ch)
	}
	st.queries.Add(1)
	st.pointsOut.Add(1)
	return last, nil
}

// Aggregate sums a channel across every node: per timestamp (raw) or
// bucket (rollups), Value is the sum of node means, Min/Max the summed
// per-node bounds (a lower/upper envelope for cluster power) and Count the
// total contributing raw points. Nodes without data in a bucket simply do
// not contribute. NaN node values are skipped; a timestamp where every
// node was NaN keeps NaN stats with Count 0.
func (st *Store) Aggregate(ch Channel, from, to float64, res Resolution) ([]Point, error) {
	if _, err := channelIndex(ch); err != nil {
		return nil, err
	}
	if err := validRes(res); err != nil {
		return nil, err
	}
	// Fan the per-node reads out across shards (each holds its own lock, so
	// the decodes genuinely run in parallel), then merge serially in sorted
	// node order. Floating-point addition is not associative, so the serial
	// merge is what keeps Aggregate bit-identical to the old single-threaded
	// walk regardless of which worker finishes first.
	nodes := st.Nodes()
	results := make([][]Point, len(nodes))
	errs := make([]error, len(nodes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(nodes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				results[i], errs[i] = st.Query(nodes[i], ch, from, to, res)
			}
		}()
	}
	wg.Wait()
	for i := range nodes {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return MergeNodeSeries(results), nil
}

// MergeNodeSeries merges per-node series into the cross-node aggregate:
// per timestamp (raw) or bucket (rollups), Value is the sum of node means,
// Min/Max the summed per-node bounds and Count the total contributing raw
// points; a timestamp where every node was NaN keeps NaN stats with
// Count 0. Floating-point addition is not associative, so the accumulation
// order is exactly the slice order — callers must pass the series in
// sorted node order to get results bit-identical to Aggregate. This is the
// one merge discipline shared by Aggregate's parallel fan-out and the
// fleet router's scatter-gather federation, which is what keeps a sharded
// deployment's aggregates byte-for-byte equal to a single store's.
func MergeNodeSeries(results [][]Point) []Point {
	type agg struct {
		key           int64
		sum, min, max float64
		count         int
		nodes         int
	}
	// The accumulators are values in one slice, in first-seen key order; the
	// map only indexes them. A merge therefore allocates per growth step of
	// two slices and a map, never per timestamp.
	longest := 0
	for i := range results {
		longest = max(longest, len(results[i]))
	}
	accs := make([]agg, 0, longest)
	index := make(map[int64]int, longest)
	ascending := true
	for i := range results {
		for _, p := range results[i] {
			key := int64(math.Round(p.Time * 1000))
			j, ok := index[key]
			if !ok {
				j = len(accs)
				ascending = ascending && (j == 0 || accs[j-1].key < key)
				accs = append(accs, agg{key: key})
				index[key] = j
			}
			if !math.IsNaN(p.Value) {
				a := &accs[j]
				a.sum += p.Value
				a.min += p.Min
				a.max += p.Max
				a.count += p.Count
				a.nodes++
			}
		}
	}
	// Time-ordered inputs — every series a store returns — meet their keys
	// in ascending order already; anything else is sorted once accumulation
	// is over, so the order keys were met in never reaches the result.
	if !ascending {
		sort.Slice(accs, func(i, j int) bool { return accs[i].key < accs[j].key })
	}
	pts := make([]Point, len(accs))
	for i := range accs {
		a := &accs[i]
		pts[i] = Point{Time: float64(a.key) / 1000, Value: math.NaN(), Min: math.NaN(), Max: math.NaN()}
		if a.nodes > 0 {
			pts[i].Value, pts[i].Min, pts[i].Max, pts[i].Count = a.sum, a.min, a.max, a.count
		}
	}
	return pts
}

// Stats summarises the store's footprint.
type Stats struct {
	// Nodes and Series count the shards and their raw series (one per
	// channel per node).
	Nodes  int `json:"nodes"`
	Series int `json:"series"`
	// Points is the number of raw points currently retained; Bytes the
	// compressed length of every block including rollups, RawBytes the
	// raw series alone. Neither counts buffer capacity: a series' spare
	// buffer, which the next block opens on, is in neither.
	Points   int64 `json:"points"`
	Bytes    int64 `json:"bytes"`
	RawBytes int64 `json:"raw_bytes"`
	// BytesPerPoint is RawBytes/Points; CompressionRatio compares it with
	// the 16 B (8 B timestamp + 8 B float64) uncompressed baseline. Both
	// are 0 while the store is empty.
	BytesPerPoint    float64 `json:"bytes_per_point"`
	CompressionRatio float64 `json:"compression_ratio"`
	// Ingested counts Ingest calls accepted since the store was created
	// (each writes NumChannels points). Queries counts per-series reads
	// (Query and Latest calls; one Aggregate issues one per node) and
	// PointsReturned the points those reads emitted. EvictedPoints counts
	// raw and rollup points dropped by retention.
	Ingested       int64 `json:"ingested"`
	Queries        int64 `json:"queries"`
	PointsReturned int64 `json:"points_returned"`
	EvictedPoints  int64 `json:"evicted_points"`
	// CacheHits/CacheMisses count block lookups in the decoded-block cache
	// (a hit extends an existing entry, a miss creates one) and CachePoints
	// the decoded points it currently holds; all zero when the cache is
	// disabled (Options.CachePoints < 0).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CachePoints int64 `json:"cache_points"`
	// Durability counters, all zero on a memory-only store: WAL bytes,
	// fsyncs, and records written since Open; records replayed by startup
	// recovery; snapshot files on disk; and the age of the newest snapshot
	// in seconds (-1 when there is none).
	WALBytes           int64   `json:"wal_bytes"`
	WALFsyncs          int64   `json:"wal_fsyncs"`
	WALRecords         int64   `json:"wal_records"`
	ReplayedRecords    int64   `json:"wal_replayed_records"`
	Snapshots          int64   `json:"snapshots"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// Stats walks every shard; it takes each shard lock briefly.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	shards := make([]*shard, 0, len(st.shards))
	//lint:ignore maporder stats are integer sums over independent shards; visit order is immaterial
	for _, sh := range st.shards {
		shards = append(shards, sh)
	}
	st.mu.RUnlock()
	var out Stats
	out.Nodes = len(shards)
	out.Ingested = st.ingested.Load()
	out.Queries = st.queries.Load()
	out.PointsReturned = st.pointsOut.Load()
	out.EvictedPoints = st.evicted.Load()
	if st.cache != nil {
		hits, misses, points := st.cache.stats()
		out.CacheHits, out.CacheMisses, out.CachePoints = hits, misses, int64(points)
	}
	if st.wal != nil {
		out.WALBytes = st.wal.bytes.Load()
		out.WALFsyncs = st.wal.fsyncs.Load()
		out.WALRecords = st.wal.records.Load()
	}
	out.ReplayedRecords = st.replayed.Load()
	out.Snapshots = st.snapshots.Load()
	out.SnapshotAgeSeconds = -1
	if ms := st.lastSnapUnix.Load(); ms > 0 {
		out.SnapshotAgeSeconds = float64(time.Now().UnixMilli()-ms) / 1000
	}
	for _, sh := range shards {
		sh.mu.Lock()
		for _, cs := range sh.chans {
			out.Series++
			out.Points += int64(cs.raw.points)
			raw := int64(cs.raw.bytes())
			out.RawBytes += raw
			out.Bytes += raw + int64(cs.r10.ser.bytes()) + int64(cs.r60.ser.bytes())
		}
		sh.mu.Unlock()
	}
	out.deriveRatios()
	return out
}

// deriveRatios sets BytesPerPoint and CompressionRatio from RawBytes and
// Points.
func (s *Stats) deriveRatios() {
	if s.Points > 0 {
		s.BytesPerPoint = float64(s.RawBytes) / float64(s.Points)
		s.CompressionRatio = 16 / s.BytesPerPoint
	}
}

// Merge folds o, another store's Stats, into s: the counters add up, the
// newer snapshot's age is kept (start s at -1 for "none yet"), and the
// ratios are derived from the sums as Store.Stats derives its own. Per-node
// series are disjoint across stores that share no node, and Gorilla
// compression is per series, so merging such stores gives exactly the
// Stats one store holding all of them would.
func (s *Stats) Merge(o Stats) {
	s.Nodes += o.Nodes
	s.Series += o.Series
	s.Points += o.Points
	s.Bytes += o.Bytes
	s.RawBytes += o.RawBytes
	s.Ingested += o.Ingested
	s.Queries += o.Queries
	s.PointsReturned += o.PointsReturned
	s.EvictedPoints += o.EvictedPoints
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CachePoints += o.CachePoints
	s.WALBytes += o.WALBytes
	s.WALFsyncs += o.WALFsyncs
	s.WALRecords += o.WALRecords
	s.ReplayedRecords += o.ReplayedRecords
	s.Snapshots += o.Snapshots
	if o.SnapshotAgeSeconds >= 0 && (s.SnapshotAgeSeconds < 0 || o.SnapshotAgeSeconds < s.SnapshotAgeSeconds) {
		s.SnapshotAgeSeconds = o.SnapshotAgeSeconds
	}
	s.deriveRatios()
}
