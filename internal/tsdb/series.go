package tsdb

import (
	"math"
	"sync"
	"sync/atomic"

	"highrpm/internal/stats"
)

// series is a ring of compressed blocks for one (node, channel,
// resolution). The newest block is open for appends; retention evicts
// whole blocks from the front once the retained point count would still
// meet maxPoints without them.
type series struct {
	k           int
	blockPoints int
	maxPoints   int // 0: unbounded
	blocks      []*block
	points      int
	// spare is the grown buffer of the block that filled last; the next
	// block appends into it from byte 0, while the filled block keeps an
	// exact copy (see append).
	spare []byte
	// evicted, when set, accumulates the points dropped by retention so
	// the owning store can report them (Stats.EvictedPoints). It is
	// shared store-wide; bumps happen under the shard lock.
	evicted *atomic.Int64
	// cache, when set, is the store-wide decoded-block cache. Every block
	// is read through it, the open one included; retention eviction
	// invalidates the evicted block's entry.
	cache *blockCache
}

func newSeries(k, blockPoints, maxPoints int) *series {
	return &series{k: k, blockPoints: blockPoints, maxPoints: maxPoints}
}

func (s *series) append(t int64, vals []float64) {
	if len(s.blocks) == 0 || s.blocks[len(s.blocks)-1].n >= s.blockPoints {
		blk := newBlock(s.k)
		blk.bs.b, s.spare = s.spare[:0], nil
		if s.cache != nil {
			blk.id = s.cache.nextEpoch()
		}
		s.blocks = append(s.blocks, blk)
	}
	blk := s.blocks[len(s.blocks)-1]
	blk.append(t, vals)
	s.points++
	if blk.n == s.blockPoints {
		// The block just sealed: it keeps an exact copy of its bytes, and
		// its grown buffer opens the next block. The copy is made here,
		// under the shard lock, because a full block already counts as
		// sealed — a snapshot cut shares it and reads its bytes after the
		// locks are released, so they must never be written again.
		s.spare = blk.bs.b
		blk.bs.b = append(make([]byte, 0, len(s.spare)), s.spare...)
	}
	// Evict oldest blocks while the remainder still satisfies retention;
	// overshoot is bounded by one block.
	for s.maxPoints > 0 && len(s.blocks) > 1 && s.points-s.blocks[0].n >= s.maxPoints {
		s.points -= s.blocks[0].n
		if s.evicted != nil {
			s.evicted.Add(int64(s.blocks[0].n))
		}
		if s.cache != nil {
			s.cache.invalidate(s.blocks[0].id)
		}
		s.blocks[0] = nil
		s.blocks = s.blocks[1:]
	}
}

// sealed is the number of leading blocks no append will write again: all
// but the newest, and the newest too once it is full.
func (s *series) sealed() int {
	n := len(s.blocks)
	if n > 0 && s.blocks[n-1].n < s.blockPoints {
		n--
	}
	return n
}

// query hands emit every retained point with from ≤ t ≤ to, oldest first,
// one run per overlapping block: the run's timestamps and its k-interleaved
// values (point p's are vals[p*k : (p+1)*k]). A run aliases memory the next
// read reuses: emit copies what it keeps.
func (s *series) query(from, to int64, emit func(ts []int64, vals []float64)) error {
	for i, blk := range s.blocks {
		if blk.n == 0 || blk.last < from || blk.first > to {
			continue
		}
		if err := s.read(i, func(db *decodedBlock) { db.emitRange(from, to, emit) }); err != nil {
			return err
		}
	}
	return nil
}

// read hands use block i decoded in full. With a cache attached that is
// the block's cache entry, extended first by whatever the block gained
// since the entry was last read — the open block included; without one the
// block decodes into a pooled entry that use must not keep.
func (s *series) read(i int, use func(db *decodedBlock)) error {
	if s.cache != nil {
		db, err := s.decoded(i)
		if err != nil {
			return err
		}
		use(db)
		return nil
	}
	blk := s.blocks[i]
	db := scratchPool.Get().(*decodedBlock)
	defer scratchPool.Put(db)
	db.k, db.ts, db.vals = blk.k, db.ts[:0], db.vals[:0]
	db.cur.reset()
	if _, err := db.extend(blk, false); err != nil {
		return err
	}
	use(db)
	return nil
}

// scratchPool serves the uncached read path: a block decodes into a pooled
// entry, never cached, and is read like a cached one.
var scratchPool = sync.Pool{New: func() any { return &decodedBlock{cur: &cursor{}} }}

// decoded returns block i's cache entry, extended to every point the
// block holds, and charges the cache for what the extension added. The
// caller holds the owning shard's lock exclusively: an entry grows in
// place, so two readers of one shard must never extend it at once.
func (s *series) decoded(i int) (*decodedBlock, error) {
	blk := s.blocks[i]
	db := s.cache.lookup(blk.id, blk.k)
	sealed := i < len(s.blocks)-1 || blk.n >= s.blockPoints
	added, err := db.extend(blk, sealed)
	if err != nil {
		s.cache.invalidate(blk.id)
		return nil, err
	}
	if added > 0 {
		s.cache.charge(blk.id, db.points())
	}
	return db, nil
}

// latest hands emit the newest retained point; ok is false when the
// series is empty. It is the last point of the youngest block, so with a
// cache a repeated "current power" read decodes only what was appended
// since the previous one.
func (s *series) latest(emit func(t int64, vals []float64)) (ok bool, err error) {
	for i := len(s.blocks) - 1; i >= 0; i-- {
		if s.blocks[i].n == 0 {
			continue
		}
		return true, s.read(i, func(db *decodedBlock) {
			p := db.points() - 1
			emit(db.ts[p], db.vals[p*db.k:(p+1)*db.k])
		})
	}
	return false, nil
}

// lastTime is the newest retained timestamp; retention evicts the oldest
// blocks only, so it is the newest ever appended.
func (s *series) lastTime() (int64, bool) {
	if len(s.blocks) == 0 || s.blocks[len(s.blocks)-1].n == 0 {
		return 0, false
	}
	return s.blocks[len(s.blocks)-1].last, true
}

// sizeHint upper-bounds how many points query(from, to) can emit without
// decoding anything: the point counts of the overlapping blocks. Callers
// use it to allocate result slices exactly once.
func (s *series) sizeHint(from, to int64) int {
	n := 0
	for _, blk := range s.blocks {
		if blk.n == 0 || blk.last < from || blk.first > to {
			continue
		}
		n += blk.n
	}
	return n
}

func (s *series) bytes() int {
	n := 0
	for _, blk := range s.blocks {
		n += blk.bytes()
	}
	return n
}

// bucketStart floors t to the enclosing bucket of width w (both ms).
func bucketStart(t, w int64) int64 {
	q := t / w
	if t%w < 0 {
		q--
	}
	return q * w
}

// rollup incrementally maintains one downsampled resolution of a channel:
// each bucket keeps min/mean/max (stats.Running) over the raw points that
// fell into it plus the non-NaN count. Sealed buckets are appended to a
// compressed series as [mean, min, max, count]; the open bucket is merged
// into query results so freshly ingested data is visible immediately.
type rollup struct {
	widthMs int64
	ser     *series
	open    bool
	start   int64
	agg     stats.Running
}

func newRollup(widthMs int64, blockPoints, maxPoints int) *rollup {
	return &rollup{widthMs: widthMs, ser: newSeries(rollupChains, blockPoints, maxPoints)}
}

// rollupChains is the per-bucket value layout: mean, min, max, count.
const rollupChains = 4

func (r *rollup) add(t int64, v float64) {
	bs := bucketStart(t, r.widthMs)
	if !r.open {
		r.start = bs
		r.open = true
	} else if bs != r.start {
		r.flush()
		r.start = bs
		r.open = true
	}
	if !math.IsNaN(v) {
		r.agg.Push(v)
	}
}

// flush seals the open bucket into the compressed series. Buckets whose
// raw points were all NaN (a sparse channel with no reading in the window)
// are stored as NaN stats with count 0, keeping bucket timestamps aligned
// across channels.
func (r *rollup) flush() {
	if !r.open {
		return
	}
	mean, min, max := math.NaN(), math.NaN(), math.NaN()
	if r.agg.N() > 0 {
		mean, min, max = r.agg.Mean(), r.agg.Min(), r.agg.Max()
	}
	vals := [rollupChains]float64{mean, min, max, float64(r.agg.N())}
	r.ser.append(r.start, vals[:])
	r.agg = stats.Running{}
	r.open = false
}

// openPoint returns the open bucket as a Point when it overlaps
// [from, to]; ok is false when there is none.
func (r *rollup) openPoint(from, to int64) (Point, bool) {
	if !r.open || r.start < from || r.start > to {
		return Point{}, false
	}
	p := Point{
		Time:  float64(r.start) / 1000,
		Value: math.NaN(), Min: math.NaN(), Max: math.NaN(),
	}
	if n := r.agg.N(); n > 0 {
		p.Value, p.Min, p.Max, p.Count = r.agg.Mean(), r.agg.Min(), r.agg.Max(), n
	}
	return p, true
}
