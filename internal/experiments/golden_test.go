package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// benchTranscriptSHA256 is the SHA-256 of every deterministic table at
// ScaleBench, seed 1. Since PR 20 a table is a pure function of seed and
// data, so any edit that moves a number, a title, a note or a cell format
// moves this hash; re-pin it only together with EXPERIMENTS.md.
const benchTranscriptSHA256 = "724d31ab8b754bef505cfaa7923fd241bf5ad97a2c8f8ec626854f8ecc9b13ad"

// TestBenchTranscriptGolden regenerates the tables EXPERIMENTS.md reports
// and checks them bit for bit. overhead is left out: its rows are wall-clock.
func TestBenchTranscriptGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("floating-point contraction differs off amd64; the hash is pinned there")
	}
	var ids []string
	for _, id := range DefaultOrder() {
		if id != "overhead" {
			ids = append(ids, id)
		}
	}
	var buf bytes.Buffer
	if err := RunAndRenderParallel(NewWorkspace(NewConfig(ScaleBench)), ids, &buf, 2); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != benchTranscriptSHA256 {
		t.Fatalf("bench transcript hash %s, pinned %s — a table moved:\n%s", got, benchTranscriptSHA256, buf.String())
	}
}
