package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchTranscriptSHA256 is the SHA-256 of every deterministic table at
// ScaleBench, seed 1: the bytes EXPERIMENTS.md's `highrpm-bench -scale bench
// ... | tail -n +3 | grep -v '^total:' | sha256sum` hashes. A table is a
// pure function of seed and data, so any edit that moves a number, a title,
// a note or a cell format moves this hash; re-pin it only together with
// EXPERIMENTS.md, which must quote it.
const benchTranscriptSHA256 = "a032553b363c4fcd0f30b6cfab7886c19f4ec6b261310c267ee365ff70cec69a"

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

// TestBenchTranscriptDocumented checks EXPERIMENTS.md quotes the pinned
// bench-scale hash, so the documented command is the one the test checks.
func TestBenchTranscriptDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), benchTranscriptSHA256) {
		t.Errorf("EXPERIMENTS.md does not quote the pinned bench transcript hash %s", benchTranscriptSHA256)
	}
}
