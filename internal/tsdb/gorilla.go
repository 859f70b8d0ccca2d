// Gorilla-style block compression for power samples: delta-of-delta
// variable-width timestamps and XOR-encoded float64 values, after
// Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time Series
// Database" (VLDB 2015). The encoding is lossless at the bit level, so a
// restored power series — including NaN gaps in sparse channels — decodes
// to exactly the float64s that were ingested.
//
// A block interleaves one timestamp chain with k value chains (k = 1 for
// raw series, k = 4 for rollup series carrying mean/min/max/count), each
// value chain keeping its own XOR predecessor and leading/trailing-zero
// window.
package tsdb

import (
	"fmt"
	"math"
	stdbits "math/bits"
	"sync"
)

// bstream is an append-only bit stream.
type bstream struct {
	b    []byte
	free uint8 // unused bits in the last byte of b
}

// writeBits appends the low n bits of v, most-significant first.
func (s *bstream) writeBits(v uint64, n uint) {
	for n > 0 {
		if s.free == 0 {
			s.b = append(s.b, 0)
			s.free = 8
		}
		take := n
		if uint(s.free) < take {
			take = uint(s.free)
		}
		shift := n - take
		chunk := byte((v >> shift) & ((1 << take) - 1))
		s.free -= uint8(take)
		s.b[len(s.b)-1] |= chunk << s.free
		n = shift
	}
}

// bitReader consumes a bstream's bytes.
type bitReader struct {
	b    []byte
	idx  int
	used uint8 // bits already consumed from b[idx]
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.idx >= len(r.b) {
			return 0, fmt.Errorf("tsdb: bit stream truncated")
		}
		avail := uint(8 - r.used)
		take := n
		if take > avail {
			take = avail
		}
		chunk := (r.b[r.idx] >> (avail - take)) & byte((1<<take)-1)
		v = v<<take | uint64(chunk)
		r.used += uint8(take)
		if r.used == 8 {
			r.idx++
			r.used = 0
		}
		n -= take
	}
	return v, nil
}

// noWindow marks a value chain that has not yet established a
// leading/trailing-zero window.
const noWindow = 0xFF

// block is one compressed run of up to blockPoints points. Timestamps are
// int64 milliseconds.
type block struct {
	bs bstream
	k  int
	n  int

	// id is the block's store-wide epoch, assigned by the owning series
	// when the block opens and a decoded-block cache is attached. Epochs
	// never repeat, so the id alone is a sound cache key for the block's
	// whole life.
	id uint64

	first, last int64 // timestamp range, valid when n > 0

	// encoder state
	tDelta   int64
	val      []uint64
	leading  []uint8
	trailing []uint8
}

func newBlock(k int) *block {
	b := &block{
		k:        k,
		val:      make([]uint64, k),
		leading:  make([]uint8, k),
		trailing: make([]uint8, k),
	}
	for i := range b.leading {
		b.leading[i] = noWindow
	}
	return b
}

func (b *block) bytes() int { return len(b.bs.b) }

// append encodes one point. len(vals) must equal b.k; timestamps may be
// irregular (the encoder handles any int64 delta).
func (b *block) append(t int64, vals []float64) {
	if b.n == 0 {
		// Block header: raw 64-bit timestamp and values. Amortised over a
		// full block this costs well under a bit per point.
		b.first = t
		b.bs.writeBits(uint64(t), 64)
		for i, v := range vals {
			bits := math.Float64bits(v)
			b.bs.writeBits(bits, 64)
			b.val[i] = bits
		}
		b.last = t
		b.n = 1
		return
	}
	delta := t - b.last
	dod := delta - b.tDelta
	b.tDelta = delta
	switch {
	case dod == 0:
		b.bs.writeBits(0, 1)
	case -63 <= dod && dod <= 64:
		b.bs.writeBits(0b10, 2)
		b.bs.writeBits(uint64(dod+63), 7)
	case -255 <= dod && dod <= 256:
		b.bs.writeBits(0b110, 3)
		b.bs.writeBits(uint64(dod+255), 9)
	case -2047 <= dod && dod <= 2048:
		b.bs.writeBits(0b1110, 4)
		b.bs.writeBits(uint64(dod+2047), 12)
	default:
		b.bs.writeBits(0b1111, 4)
		b.bs.writeBits(uint64(dod), 64)
	}
	for i, v := range vals {
		b.writeValue(i, math.Float64bits(v))
	}
	b.last = t
	b.n++
}

func (b *block) writeValue(i int, bits uint64) {
	xor := bits ^ b.val[i]
	b.val[i] = bits
	if xor == 0 {
		b.bs.writeBits(0, 1)
		return
	}
	lead := uint8(stdbits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31 // 5-bit field; longer runs just spill into the payload
	}
	trail := uint8(stdbits.TrailingZeros64(xor))
	if b.leading[i] != noWindow && lead >= b.leading[i] && trail >= b.trailing[i] {
		// Meaningful bits fit the previous window: reuse it.
		b.bs.writeBits(0b10, 2)
		sig := 64 - uint(b.leading[i]) - uint(b.trailing[i])
		b.bs.writeBits(xor>>b.trailing[i], sig)
		return
	}
	b.leading[i], b.trailing[i] = lead, trail
	sig := 64 - uint(lead) - uint(trail)
	b.bs.writeBits(0b11, 2)
	b.bs.writeBits(uint64(lead), 5)
	b.bs.writeBits(uint64(sig)&63, 6) // sig ∈ [1,64]; 64 encodes as 0
	b.bs.writeBits(xor>>trail, sig)
}

// cursor is a resumable scan of one block: how many points it has
// decoded, the bit position just past the last of them, and the state
// decoding the next point needs — the running timestamp and delta plus
// each value chain's XOR predecessor and leading/trailing-zero window.
// Blocks only ever append, so a cursor stays valid while its block grows
// and a later scan picks up exactly where the previous one stopped.
type cursor struct {
	r        bitReader
	n        int
	t        int64
	tDelta   int64
	cur      []uint64
	leading  []uint8
	trailing []uint8
	vals     []float64 // the last point's values, handed to emit
}

func newCursor(k int) *cursor {
	c := &cursor{}
	c.reset(k)
	return c
}

// cursorPool serves the one-shot scans (block.decode), so a steady-state
// decode without a cache allocates nothing.
var cursorPool = sync.Pool{New: func() any { return &cursor{} }}

// reset rewinds the cursor to a block's header and sizes it for k value
// chains.
func (c *cursor) reset(k int) {
	if cap(c.vals) < k {
		c.vals = make([]float64, k)
		c.cur = make([]uint64, k)
		c.leading = make([]uint8, k)
		c.trailing = make([]uint8, k)
	}
	c.vals = c.vals[:k]
	c.cur = c.cur[:k]
	c.leading = c.leading[:k]
	c.trailing = c.trailing[:k]
	clear(c.cur)
	clear(c.leading)
	clear(c.trailing)
	c.r = bitReader{}
	c.n, c.t, c.tDelta = 0, 0, 0
}

// decode replays the block from its header in append order. emit
// returning false stops the scan early (points are time-ordered, so a
// range query can cut off once past its upper bound). vals is reused
// between calls — copy to retain.
func (b *block) decode(emit func(t int64, vals []float64) bool) error {
	c := cursorPool.Get().(*cursor)
	c.reset(b.k)
	err := b.decodeWith(c, emit)
	cursorPool.Put(c)
	return err
}

// decodeWith is the one Gorilla decode loop: it resumes c at its next
// point and replays the block's points from there on, advancing c past
// each one it hands to emit. A cursor must only ever scan the block it
// was reset for. After an error the cursor is unusable.
func (b *block) decodeWith(c *cursor, emit func(t int64, vals []float64) bool) error {
	// Appends may have moved the stream, and filled the low bits of the
	// byte the cursor stopped in; the bits it already read never change.
	c.r.b = b.bs.b
	for c.n < b.n {
		if c.n == 0 {
			// Block header: raw 64-bit timestamp and values.
			ts, err := c.r.readBits(64)
			if err != nil {
				return err
			}
			c.t = int64(ts)
			for i := range c.cur {
				if c.cur[i], err = c.r.readBits(64); err != nil {
					return err
				}
				c.vals[i] = math.Float64frombits(c.cur[i])
			}
		} else {
			dod, err := c.r.readDoD()
			if err != nil {
				return err
			}
			c.tDelta += dod
			c.t += c.tDelta
			for i := range c.cur {
				xor, err := c.r.readXOR(&c.leading[i], &c.trailing[i])
				if err != nil {
					return err
				}
				c.cur[i] ^= xor
				c.vals[i] = math.Float64frombits(c.cur[i])
			}
		}
		c.n++
		if !emit(c.t, c.vals) {
			return nil
		}
	}
	return nil
}

func (r *bitReader) readDoD() (int64, error) {
	// Count leading ones of the selector (at most four).
	sel := uint(0)
	for sel < 4 {
		bit, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			break
		}
		sel++
	}
	switch sel {
	case 0:
		return 0, nil
	case 1:
		v, err := r.readBits(7)
		return int64(v) - 63, err
	case 2:
		v, err := r.readBits(9)
		return int64(v) - 255, err
	case 3:
		v, err := r.readBits(12)
		return int64(v) - 2047, err
	default:
		v, err := r.readBits(64)
		return int64(v), err
	}
}

func (r *bitReader) readXOR(leading, trailing *uint8) (uint64, error) {
	bit, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	if bit == 0 {
		return 0, nil
	}
	reuse, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	if reuse == 0 {
		sig := 64 - uint(*leading) - uint(*trailing)
		v, err := r.readBits(sig)
		return v << *trailing, err
	}
	lead, err := r.readBits(5)
	if err != nil {
		return 0, err
	}
	sigRaw, err := r.readBits(6)
	if err != nil {
		return 0, err
	}
	sig := uint(sigRaw)
	if sig == 0 {
		sig = 64
	}
	*leading = uint8(lead)
	*trailing = uint8(64 - uint(lead) - sig)
	v, err := r.readBits(sig)
	return v << *trailing, err
}
