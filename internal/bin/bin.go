// Package bin reads the tree's big-endian binary formats: the cluster wire
// frames, the tsdb WAL records and the tsdb snapshots all decode through
// its one Reader, and every writer of them appends with encoding/binary.
//
// A Reader is a bounds-checked cursor over one encoded unit — a frame
// payload, a record, a snapshot body. Its first read past the end fails
// it for good: that read and every later one return zero, so a decoder
// reads a whole unit field by field and checks once, at the end, with Err
// or Done. Every method but those two inlines at its call site.
package bin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a cursor over one encoded unit.
type Reader struct {
	b      []byte
	off    int
	failed bool
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// take advances past n bytes and returns where they start, or fails the
// reader and returns -1.
func (r *Reader) take(n int) int {
	if r.failed || n < 0 || len(r.b)-r.off < n {
		r.failed = true
		return -1
	}
	at := r.off
	r.off += n
	return at
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	at := r.take(1)
	if at < 0 {
		return 0
	}
	return r.b[at]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	at := r.take(2)
	if at < 0 {
		return 0
	}
	return binary.BigEndian.Uint16(r.b[at:])
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	at := r.take(4)
	if at < 0 {
		return 0
	}
	return binary.BigEndian.Uint32(r.b[at:])
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	at := r.take(8)
	if at < 0 {
		return 0
	}
	return binary.BigEndian.Uint64(r.b[at:])
}

// I64 reads a big-endian int64 (two's complement).
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 as its big-endian bit pattern, NaN payloads included.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads the next n bytes. The slice aliases the reader's buffer. A
// negative n fails the reader like one that overruns it.
func (r *Reader) Bytes(n int) []byte {
	at := r.take(n)
	if at < 0 {
		return nil
	}
	return r.b[at:r.off:r.off]
}

// Off is the offset of the next byte to read; Len is how many are left.
func (r *Reader) Off() int { return r.off }
func (r *Reader) Len() int { return len(r.b) - r.off }

// Err reports the first failed read, naming the offset it was made at.
// Callers prefix it with their unit ("snapshot truncated at offset …").
func (r *Reader) Err() error {
	if r.failed {
		return fmt.Errorf("truncated at offset %d of %d", r.off, len(r.b))
	}
	return nil
}

// Done is Err, and also fails when bytes are left: a unit is read exactly,
// which is what makes decode ∘ encode the identity on everything accepted.
func (r *Reader) Done() error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("has %d trailing bytes past offset %d", len(r.b)-r.off, r.off)
	}
	return nil
}
