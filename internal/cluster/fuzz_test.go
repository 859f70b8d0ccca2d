package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"unicode/utf8"

	"highrpm/internal/leaktest"
)

// frameFor frames raw bytes with a length prefix, bypassing WriteMsg's JSON
// marshalling so fuzzing can reach the decoder with arbitrary bodies.
func frameFor(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

// FuzzReadEnvelope throws arbitrary byte streams at the frame decoder. The
// contract under attack: never panic, never allocate anywhere near the
// claimed frame length for bytes that did not arrive, and either return a
// well-formed envelope or an error — nothing in between.
func FuzzReadEnvelope(f *testing.F) {
	// A valid hello frame.
	var ok bytes.Buffer
	if err := WriteMsg(&ok, KindHello, Hello{NodeID: "seed"}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	// Length prefix claims 4 GiB with no body behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Claims exactly the cap plus one byte.
	var over [4]byte
	binary.BigEndian.PutUint32(over[:], uint32(DefaultMaxFrame)+1)
	f.Add(over[:])
	// Truncated body: claims 100 bytes, delivers 3.
	f.Add(append([]byte{0, 0, 0, 100}, '{', '"', 'k'))
	// Well-framed garbage JSON.
	f.Add(frameFor([]byte(`{"kind": 12, "body": [`)))
	// Zero-length frame.
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadMsgLimit(bufio.NewReader(bytes.NewReader(data)), DefaultMaxFrame)
		if err != nil {
			return
		}
		// A successful decode must re-frame within the cap: the decoder may
		// not hand back more than it was allowed to read.
		var out bytes.Buffer
		if werr := WriteMsg(&out, env.Kind, env.Body); werr != nil && !errors.Is(werr, ErrFrameTooLarge) {
			t.Fatalf("decoded envelope does not re-frame: %v", werr)
		}
	})
}

// FuzzEnvelopeRoundTrip checks WriteMsg/ReadMsgLimit are inverses for any kind
// string and any JSON-encodable body. encoding/json coerces invalid UTF-8
// to U+FFFD replacement runes, so the byte-exact half of the invariant
// applies only to valid UTF-8 input; for the rest the decode must still
// succeed.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("hello", `{"node_id":"n1"}`)
	f.Add("sample", `{"node_id":"n","time":3,"pmc":[1,2,3]}`)
	f.Add("", ``)
	f.Add("error", `{"message":"boom"}`)
	f.Add("series", `{"points":[{"t":1,"v":null,"min":null,"max":null,"n":0}]}`)

	f.Fuzz(func(t *testing.T, kind, body string) {
		var buf bytes.Buffer
		err := WriteMsg(&buf, MsgKind(kind), body)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				return // correctly refused to emit an unreadable frame
			}
			t.Fatalf("WriteMsg(%q): %v", kind, err)
		}
		env, err := ReadMsgLimit(bufio.NewReader(&buf), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("ReadMsgLimit after WriteMsg(%q): %v", kind, err)
		}
		var got string
		if err := DecodeBody(env, &got); err != nil {
			t.Fatalf("DecodeBody: %v", err)
		}
		if utf8.ValidString(kind) && env.Kind != MsgKind(kind) {
			t.Fatalf("kind round trip: wrote %q read %q", kind, env.Kind)
		}
		if utf8.ValidString(body) && got != body {
			t.Fatalf("body round trip: wrote %q read %q", body, got)
		}
	})
}

// TestReadMsgNoOverAllocation is the deterministic regression test for the
// adversarial-length-prefix fix: a peer that claims a frame just under the
// cap but sends only a handful of bytes must cost at most one read chunk of
// memory, not the claimed length.
func TestReadMsgNoOverAllocation(t *testing.T) {
	leaktest.Check(t)
	claim := DefaultMaxFrame - 1
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(claim))
	stream := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader([]byte(`{"kind"`)))
	r := bufio.NewReader(stream)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadMsgLimit(r, DefaultMaxFrame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded successfully")
	}
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("claim of %d bytes is under the cap, got %v", claim, err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	// One chunk is 64 KiB; leave room for unrelated runtime allocation but
	// stay far below the ~8 MiB an eager pre-allocation would show.
	if grew > 1<<20 {
		t.Fatalf("ReadMsgLimit allocated %d bytes for a frame that never arrived", grew)
	}
}
