package tsdb

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// blockCache is the store-wide LRU of decoded blocks. An entry is a
// decoded prefix of its block plus the cursor that produced it, so a
// query extends the entry by the points appended since the last one
// instead of decoding the block again from its header. A prefix is never
// stale: blocks only append, and retention evicts whole sealed blocks,
// which drops their entries (invalidate). Once a sealed block is fully
// decoded its entry lets go of the cursor.
//
// Keys are the block epoch: a store-wide counter stamped onto each block
// when it opens, so a key is stable for the block's whole life and never
// reused after eviction. Only the owning shard extends an entry, under
// its exclusive lock; the cache's own mutex guards the map, the LRU order
// and the charges. The budget is counted in decoded points; one decoded
// raw point costs 16 B (timestamp + value), a rollup point 40 B.
type blockCache struct {
	mu      sync.Mutex
	cap     int        // decoded-point budget
	size    int        // decoded points currently charged
	lru     *list.List // of *cacheEntry, most recently used at front
	entries map[uint64]*list.Element

	epochs atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one cached block. points is what the cache has been
// charged for it; it changes only under blockCache.mu, so eviction never
// reads the decodedBlock another shard may be extending.
type cacheEntry struct {
	id     uint64
	db     *decodedBlock
	points int
}

// decodedBlock is a decoded prefix of one block: parallel timestamps plus
// k-interleaved values (point p occupies vals[p*k : (p+1)*k]). cur resumes
// the decode where the prefix ends; it is nil once a sealed block is
// fully decoded. Entries grow in place, so they are read and extended
// only under the owning shard's lock.
type decodedBlock struct {
	k    int
	ts   []int64
	vals []float64
	cur  *cursor
}

func (db *decodedBlock) points() int { return len(db.ts) }

// extend decodes the points b gained since the prefix ended and reports
// how many it added. Arrays grow by append, never to the full block size:
// a rollup block may stay nearly empty for its whole cached life. sealed
// says b will not grow again, so a complete prefix drops its cursor.
func (db *decodedBlock) extend(b *block, sealed bool) (int, error) {
	if db.cur == nil {
		return 0, nil
	}
	before := len(db.ts)
	if grow := b.n - before; grow > 0 {
		db.ts = slices.Grow(db.ts, grow)
		db.vals = slices.Grow(db.vals, grow*db.k)
	}
	err := b.decodeWith(db.cur, func(t int64, vals []float64) {
		db.ts = append(db.ts, t)
		db.vals = append(db.vals, vals...)
	})
	if err != nil {
		return 0, err
	}
	if sealed {
		db.cur = nil
	}
	return len(db.ts) - before, nil
}

// emitRange hands emit the cached points with from ≤ t ≤ to as one run:
// their timestamps and their k-interleaved values, oldest first, with both
// ends found by binary search. Nothing is called for an empty range. The
// slices alias the entry's arrays — callers copy.
func (db *decodedBlock) emitRange(from, to int64, emit func(ts []int64, vals []float64)) {
	lo := sort.Search(len(db.ts), func(i int) bool { return db.ts[i] >= from })
	hi := sort.Search(len(db.ts), func(i int) bool { return db.ts[i] > to })
	if lo < hi {
		emit(db.ts[lo:hi], db.vals[lo*db.k:hi*db.k])
	}
}

// newBlockCache sizes a cache for capPoints decoded points.
func newBlockCache(capPoints int) *blockCache {
	return &blockCache{
		cap:     capPoints,
		lru:     list.New(),
		entries: map[uint64]*list.Element{},
	}
}

// nextEpoch stamps a freshly opened block.
func (c *blockCache) nextEpoch() uint64 { return c.epochs.Add(1) }

// lookup returns block id's entry, creating an empty one (a miss) when
// there is none; finding one counts as a hit.
func (c *blockCache) lookup(id uint64, k int) *decodedBlock {
	c.mu.Lock()
	if el := c.entries[id]; el != nil {
		c.lru.MoveToFront(el)
		db := el.Value.(*cacheEntry).db
		c.mu.Unlock()
		c.hits.Add(1)
		return db
	}
	db := &decodedBlock{k: k, cur: &cursor{}}
	c.entries[id] = c.lru.PushFront(&cacheEntry{id: id, db: db})
	c.mu.Unlock()
	c.misses.Add(1)
	return db
}

// charge records that id's entry now holds points decoded points and
// evicts from the LRU tail until the budget holds again. It never evicts
// id itself, so one block larger than the whole budget still caches. An
// entry evicted while it was being extended stays evicted.
func (c *blockCache) charge(id uint64, points int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[id]
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.size += points - ent.points
	ent.points = points
	for c.size > c.cap {
		victim := c.lru.Back()
		if victim == el {
			victim = el.Prev()
		}
		if victim == nil {
			return
		}
		c.remove(victim)
	}
}

// remove drops one entry; c.mu must be held.
func (c *blockCache) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.size -= ent.points
	c.lru.Remove(el)
	delete(c.entries, ent.id)
}

// invalidate drops one block's entry; retention calls it when the block
// leaves its series, so the cache never outlives the data it mirrors.
func (c *blockCache) invalidate(id uint64) {
	c.mu.Lock()
	if el := c.entries[id]; el != nil {
		c.remove(el)
	}
	c.mu.Unlock()
}

// purge empties the cache (benchmarks use it to measure the cold path).
func (c *blockCache) purge() {
	c.mu.Lock()
	c.lru.Init()
	c.entries = map[uint64]*list.Element{}
	c.size = 0
	c.mu.Unlock()
}

// stats snapshots hit/miss counters and the decoded points held.
func (c *blockCache) stats() (hits, misses int64, points int) {
	hits = c.hits.Load()
	misses = c.misses.Load()
	c.mu.Lock()
	points = c.size
	c.mu.Unlock()
	return hits, misses, points
}
