package bin

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestReader(t *testing.T) {
	// 1 + 2 + 4 + 8 bytes of fields, then three more: 18 in all.
	unit := []byte{0x01}
	unit = binary.BigEndian.AppendUint16(unit, 0x0203)
	unit = binary.BigEndian.AppendUint32(unit, 0x04050607)
	unit = binary.BigEndian.AppendUint64(unit, math.Float64bits(-2.5))
	unit = append(unit, 'a', 'b', 'c')

	for _, tc := range []struct {
		name string
		// read reads from r, a Reader over buf, a fresh copy of unit.
		read func(r *Reader, buf []byte)
		// off is where the reader stands afterwards; err and done are
		// substrings of Err and Done ("" for nil).
		off       int
		err, done string
	}{
		{
			name: "exact",
			read: func(r *Reader, _ []byte) {
				if r.U8() != 1 || r.U16() != 0x0203 || r.U32() != 0x04050607 || r.F64() != -2.5 || string(r.Bytes(3)) != "abc" {
					t.Error("fields read back wrong")
				}
			},
			off: len(unit),
		},
		{
			name: "trailing bytes",
			read: func(r *Reader, _ []byte) { r.U8(); r.U16() },
			off:  3, done: "has 15 trailing bytes past offset 3",
		},
		{
			name: "read past the end fails for good",
			read: func(r *Reader, _ []byte) {
				r.Bytes(12)
				if v := r.U64(); v != 0 {
					t.Errorf("overrunning U64 = %#x, want 0", v)
				}
				// Three bytes are left, but the reader has failed.
				if v, b := r.U8(), r.Bytes(0); v != 0 || b != nil {
					t.Errorf("read after failure = %d, %v; want 0, nil", v, b)
				}
				if v := r.I64(); v != 0 {
					t.Errorf("I64 after failure = %d", v)
				}
			},
			off: 12, err: "truncated at offset 12 of 18", done: "truncated at offset 12 of 18",
		},
		{
			name: "Bytes refuses an overrun",
			read: func(r *Reader, _ []byte) {
				if b := r.Bytes(len(unit) + 1); b != nil {
					t.Errorf("overrunning Bytes = %v", b)
				}
			},
			off: 0, err: "truncated at offset 0 of 18", done: "truncated at offset 0",
		},
		{
			// A u32 length read as an int is negative on a 32-bit platform.
			name: "Bytes refuses a negative length",
			read: func(r *Reader, _ []byte) {
				r.U8()
				if b := r.Bytes(-1); b != nil {
					t.Errorf("Bytes(-1) = %v", b)
				}
			},
			off: 1, err: "truncated at offset 1 of 18", done: "truncated at offset 1",
		},
		{
			name: "Bytes aliases the buffer",
			read: func(r *Reader, buf []byte) {
				r.U8()
				b := r.Bytes(2)
				b[0] = 42
				if buf[1] != 42 {
					t.Error("Bytes copied instead of aliasing the buffer")
				}
				// Capped at its length: an append through it cannot overwrite
				// the bytes still to be read.
				if cap(b) != 2 {
					t.Errorf("Bytes slice has cap %d, want 2", cap(b))
				}
			},
			off: 3, done: "has 15 trailing bytes past offset 3",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), unit...)
			r := NewReader(buf)
			tc.read(&r, buf)
			if r.Off() != tc.off || r.Len() != len(unit)-tc.off {
				t.Errorf("Off, Len = %d, %d; want %d, %d", r.Off(), r.Len(), tc.off, len(unit)-tc.off)
			}
			check := func(what string, err error, want string) {
				t.Helper()
				switch {
				case want == "" && err != nil:
					t.Errorf("%s = %v, want nil", what, err)
				case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
					t.Errorf("%s = %v, want %q", what, err, want)
				}
			}
			check("Err", r.Err(), tc.err)
			check("Done", r.Done(), tc.done)
		})
	}
}
