package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"highrpm/internal/leaktest"
)

// seedSealed fills a store with n points for one node so that most blocks
// are sealed (BlockPoints 128 → n/128 sealed blocks plus one open).
func seedSealed(tb testing.TB, st *Store, node string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		err := st.Ingest(node, float64(i), Sample{
			PNode: 90 + math.Sin(float64(i)/7)*20, PCPU: 40, PMEM: 12,
			PNodePrime: 90, IPMI: math.NaN(),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCacheByteIdenticalResults is the cache's correctness law: a warm
// read must render to exactly the bytes a cold read renders to, raw and
// rollup, per-node and aggregated.
func TestCacheByteIdenticalResults(t *testing.T) {
	leaktest.Check(t)
	st := New(Options{BlockPoints: 128, RetainRaw: 5000, Retain10s: 600, Retain60s: 100})
	defer st.Close()
	seedSealed(t, st, "a", 2000)
	seedSealed(t, st, "b", 2000)

	for _, req := range []struct {
		node string
		res  int
	}{{"a", 1}, {"a", 10}, {"b", 60}, {"", 1}, {"", 10}} {
		st.cache.purge()
		cold, err := st.QuerySeries(req.node, "p_node", 0, 2000, req.res)
		if err != nil {
			t.Fatalf("cold %+v: %v", req, err)
		}
		warm, err := st.QuerySeries(req.node, "p_node", 0, 2000, req.res)
		if err != nil {
			t.Fatalf("warm %+v: %v", req, err)
		}
		cb, _ := json.Marshal(cold)
		wb, _ := json.Marshal(warm)
		if !bytes.Equal(cb, wb) {
			t.Fatalf("%+v: warm read differs from cold read", req)
		}
		if len(cold.Points) == 0 {
			t.Fatalf("%+v returned no points", req)
		}
	}
	hits, misses, points := st.cache.stats()
	if hits == 0 || misses == 0 || points == 0 {
		t.Fatalf("cache never exercised: hits %d, misses %d, points %d", hits, misses, points)
	}
}

// TestCacheInvalidateOnEviction: retention evicting a sealed block must
// drop its cache entry — the budget shrinks and re-reads stay correct.
func TestCacheInvalidateOnEviction(t *testing.T) {
	st := New(Options{BlockPoints: 16, RetainRaw: 64, Retain10s: 0, Retain60s: 0})
	defer st.Close()
	seedSealed(t, st, "n", 64)
	if _, err := st.Query("n", ChanPNode, 0, 64, Raw); err != nil {
		t.Fatal(err)
	}
	_, _, before := st.cache.stats()
	if before == 0 {
		t.Fatal("sealed blocks not cached")
	}
	// Push far enough that every original block falls out of retention.
	for i := 64; i < 320; i++ {
		if err := st.Ingest("n", float64(i), Sample{PNode: 1, IPMI: math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
	pts, err := st.Query("n", ChanPNode, 0, 1e9, Raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("points out of order after eviction: %v then %v", pts[i-1], pts[i])
		}
	}
	_, _, after := st.cache.stats()
	if after > before+64 {
		t.Fatalf("cache retains evicted blocks: %d points cached (was %d, retention 64)", after, before)
	}
}

// TestCacheDisabled: CachePoints < 0 must run the pooled-decode path only
// and still answer correctly.
func TestCacheDisabled(t *testing.T) {
	st := New(Options{BlockPoints: 128, RetainRaw: 1000, CachePoints: -1})
	defer st.Close()
	seedSealed(t, st, "n", 500)
	pts, err := st.Query("n", ChanPNode, 0, 500, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 500 {
		t.Fatalf("%d points, want 500", len(pts))
	}
	if st.cache != nil {
		t.Fatal("negative CachePoints should disable the cache")
	}
}

// TestQueryWarmAllocs is the read-path allocation guard: once the sealed
// blocks are cached, a raw Query may allocate the result slice and
// (essentially) nothing else. The bound of 4 covers the one make plus the
// emit closure and its context; the point is that per-point and per-block
// allocations — decode state, scratch slices — never reappear.
func TestQueryWarmAllocs(t *testing.T) {
	st := New(Options{BlockPoints: 128, RetainRaw: 5000})
	defer st.Close()
	seedSealed(t, st, "n", 2000)
	warm := func() {
		pts, err := st.Query("n", ChanPNode, 0, 1900, Raw)
		if err != nil || len(pts) < 1900 {
			t.Fatalf("query: %d points, err %v", len(pts), err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	if allocs > 4 {
		t.Fatalf("warm raw query of ~1900 points allocates %.1f times, want <= 4 (result slice + closure)", allocs)
	}
	// A window ending at the newest point reads the open block too. Once
	// its entry is warm and nothing was appended, it costs no more.
	newest := func() {
		pts, err := st.Query("n", ChanPNode, 1500, 1999, Raw)
		if err != nil || len(pts) != 500 {
			t.Fatalf("query: %d points, err %v", len(pts), err)
		}
	}
	newest()
	allocs = testing.AllocsPerRun(50, newest)
	if allocs > 4 {
		t.Fatalf("warm raw query through the open block allocates %.1f times, want <= 4", allocs)
	}
}

// TestCacheChargesAppendedPoints pins the cost law of the open block's
// entry: a query after k appends decodes those k points and nothing else,
// so the cache's charge rises by exactly k, and the lookups it makes are
// hits. The rollup resolutions obey the same law per sealed bucket.
func TestCacheChargesAppendedPoints(t *testing.T) {
	st := New(Options{BlockPoints: 128, RetainRaw: 5000})
	defer st.Close()
	seedSealed(t, st, "n", 1000) // 7 sealed raw blocks, 104 points open
	query := func(res Resolution) {
		t.Helper()
		if _, err := st.Query("n", ChanPNode, 0, 1e9, res); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range Resolutions() {
		query(res)
	}
	n := 1000
	for _, k := range []int{1, 7, 24, 50} { // the last one seals a block
		before := st.Stats()
		for end := n + k; n < end; n++ {
			if err := st.Ingest("n", float64(n), Sample{PNode: float64(n), IPMI: math.NaN()}); err != nil {
				t.Fatal(err)
			}
		}
		query(Raw)
		after := st.Stats()
		if got := after.CachePoints - before.CachePoints; got != int64(k) {
			t.Fatalf("after %d appends the cache grew by %d points, want %d", k, got, k)
		}
		if after.CacheMisses-before.CacheMisses > 1 {
			t.Fatalf("after %d appends: %d misses, want at most the one new block", k, after.CacheMisses-before.CacheMisses)
		}
	}
	// The rollups' open buckets are never cached: from 1000 to 1082 raw
	// points, 9 ten-second and 2 minute buckets sealed.
	before := st.Stats().CachePoints
	query(TenSeconds)
	query(Minute)
	if got := st.Stats().CachePoints - before; got != 9+2 {
		t.Fatalf("rollup entries grew by %d points, want the 11 buckets sealed since the first read", got)
	}
}

// TestCacheChargeKeepsExtendedEntry: an entry that outgrows the whole
// budget evicts every other entry but never itself, and the budget holds
// again as soon as anything smaller is charged.
func TestCacheChargeKeepsExtendedEntry(t *testing.T) {
	c := newBlockCache(10)
	for id := uint64(1); id <= 3; id++ {
		c.lookup(id, 1)
		c.charge(id, 3)
	}
	c.lookup(1, 1) // most recently used; 2 is now the LRU tail
	c.charge(4, 5) // no such entry: a no-op
	if _, _, points := c.stats(); points != 9 {
		t.Fatalf("%d points charged, want 9", points)
	}
	c.lookup(2, 1)
	c.charge(2, 12)
	if _, _, points := c.stats(); points != 12 || len(c.entries) != 1 || c.entries[2] == nil {
		t.Fatalf("after outgrowing the budget: %d points in %d entries, want block 2 alone with 12", points, len(c.entries))
	}
	c.lookup(5, 1)
	c.charge(5, 1)
	if _, _, points := c.stats(); points != 1 || c.entries[5] == nil {
		t.Fatalf("%d points after a small charge, want the new entry's 1", points)
	}
}

// TestLatestMatchesQuery: under interleaved ingests, Latest is the last
// raw point Query returns, with the cache on (Latest extends the open
// block's entry) and off (Latest decodes the block directly).
func TestLatestMatchesQuery(t *testing.T) {
	for _, cachePoints := range []int{0, -1} {
		st := New(Options{BlockPoints: 16, RetainRaw: 64, CachePoints: cachePoints})
		for i := 0; i < 200; i++ {
			v := 80 + float64(i%13)
			if i%9 == 0 {
				v = math.NaN()
			}
			if err := st.Ingest("n", float64(i)*1.5, Sample{PNode: v, IPMI: math.NaN()}); err != nil {
				t.Fatal(err)
			}
			if i%3 != 0 {
				continue
			}
			p, err := st.Latest("n", ChanPNode)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := st.Query("n", ChanPNode, 0, 1e9, Raw)
			if err != nil {
				t.Fatal(err)
			}
			want := pts[len(pts)-1]
			if p.Time != want.Time || !sameBits(p.Value, want.Value) || p.Count != 1 {
				t.Fatalf("CachePoints %d, after %d ingests: Latest %+v, last queried point %+v", cachePoints, i+1, p, want)
			}
		}
		st.Close()
	}
}

// BenchmarkQueryCached measures the sealed-block read path cold (cache
// purged every iteration, full Gorilla decode) and warm (decoded blocks
// served from the LRU). The warm/cold ratio is the cache's win; the
// acceptance bar is warm >= 3x faster.
func BenchmarkQueryCached(b *testing.B) {
	st := New(Options{BlockPoints: 128, RetainRaw: 20000})
	defer st.Close()
	seedSealed(b, st, "n", 10000)

	run := func(b *testing.B, purge bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if purge {
				st.cache.purge()
			}
			pts, err := st.Query("n", ChanPNode, 0, 9900, Raw)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) < 9900 {
				b.Fatalf("%d points", len(pts))
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}

// BenchmarkAggregate measures the multi-node fan-out with warm caches —
// the parallel per-shard Query plus the serial bit-exact merge.
func BenchmarkAggregate(b *testing.B) {
	st := New(Options{BlockPoints: 128, RetainRaw: 10000})
	defer st.Close()
	for n := 0; n < 8; n++ {
		seedSealed(b, st, fmt.Sprintf("node-%d", n), 4000)
	}
	if _, err := st.Aggregate(ChanPNode, 0, 4000, Raw); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := st.Aggregate(ChanPNode, 0, 4000, Raw)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) < 3900 {
			b.Fatalf("%d points", len(pts))
		}
	}
}
