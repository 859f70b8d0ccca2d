package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"highrpm/internal/leaktest"
)

// snapshotGolden is the SHA-256 of the snapshot file TestSnapshotFileGolden
// writes. The file format is pinned byte for byte: a change to how a
// snapshot is cut or written must leave it alone.
const snapshotGolden = "1615800735f9b34a8f1737571ffffbc2b6107218c3d9ab289928a91f58c0249a"

// TestSnapshotFileGolden writes one snapshot of a seeded store — sealed and
// open blocks, open rollup buckets, NaN gaps, retention evictions — and
// compares the file's SHA-256 with the pinned one.
func TestSnapshotFileGolden(t *testing.T) {
	leaktest.Check(t)
	opts := durableOpts(t.TempDir())
	opts.RetainRaw, opts.Retain10s = 256, 64
	st, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	fillSeeded(t, st, 7, 2000)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(opts.Dir, seqName(snapPrefix, 2000, snapSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != snapshotGolden {
		t.Fatalf("snapshot file (%d bytes) hashes to %s, want %s", len(data), got, snapshotGolden)
	}
}

// TestSnapshotUnderConcurrentIngest elects automatic snapshots every 64
// records while four goroutines ingest distinct nodes and a fifth reads
// them, with retention evicting blocks throughout: the snapshot cuts the
// live series under the shard locks and serialises the cut after releasing
// them, beside appends, evictions and cached reads of the same blocks. Run
// under -race (scripts/verify.sh does). A clean Close and Open must then
// recover the image the store served before closing.
func TestSnapshotUnderConcurrentIngest(t *testing.T) {
	leaktest.Check(t)
	const (
		writers = 4
		seconds = 600
	)
	opts := durableOpts(t.TempDir())
	opts.SnapshotEvery = 64
	opts.RetainRaw, opts.Retain10s = 128, 32
	st, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ingest := func(w, i int) error {
		p := 80 + float64((i*7+w)%31) + 0.25*float64(w)
		ipmi := math.NaN()
		if i%10 == w {
			ipmi = p + 0.5
		}
		return st.Ingest(fmt.Sprintf("node-%d", w), float64(i), Sample{PNode: p, PCPU: 0.6 * p, PMEM: 0.2 * p, PNodePrime: p - 1, IPMI: ipmi})
	}
	for w := 0; w < writers; w++ { // every node exists before the reader starts
		if err := ingest(w, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < seconds; i++ {
				if err := ingest(w, i); err != nil {
					t.Errorf("node-%d ingest %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			node := fmt.Sprintf("node-%d", i%writers)
			if _, err := st.Query(node, ChanPNode, 0, seconds, Raw); err != nil {
				t.Errorf("query %s: %v", node, err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	rwg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if st.Stats().Snapshots == 0 {
		t.Fatal("no automatic snapshot was taken")
	}
	want := storeImage(t, st)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close recovered store: %v", err)
		}
	}()
	if rec.SnapshotPath == "" || len(rec.Damage) > 0 || len(rec.CorruptSnapshots) > 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if rec.LastSeq != writers*seconds {
		t.Fatalf("recovered LastSeq = %d, want %d", rec.LastSeq, writers*seconds)
	}
	if got := storeImage(t, st2); !bytes.Equal(got, want) {
		t.Fatalf("recovered image differs from the pre-close image (%d bytes, want %d)", len(got), len(want))
	}
}

// TestSnapshotAllocation bounds what a snapshot allocates on a store of
// many sealed blocks: the cut copies block pointers and the open blocks,
// and the file streams through one write buffer, so the total is a small
// share of the file. A writer that built the body in memory first would
// allocate at least the file's size.
func TestSnapshotAllocation(t *testing.T) {
	leaktest.Check(t)
	opts := durableOpts(t.TempDir())
	st, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	const samples = 12000
	fillSeeded(t, st, 3, samples)
	for _, node := range st.Nodes() {
		sh := st.shardFor(node)
		for ci, cs := range sh.chans {
			if sealed := len(cs.raw.blocks) - 1; sealed < 20 {
				t.Fatalf("%s channel %d holds %d sealed raw blocks, want at least 20", node, ci, sealed)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	runtime.ReadMemStats(&after)
	info, err := os.Stat(filepath.Join(opts.Dir, seqName(snapPrefix, samples, snapSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; 4*alloc >= uint64(info.Size()) {
		t.Fatalf("a snapshot of a %d-byte file allocates %d bytes, want under a quarter of it", info.Size(), alloc)
	}
}
