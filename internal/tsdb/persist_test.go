package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highrpm/internal/leaktest"
)

// durableOpts sizes a store small enough that a short workload exercises
// block sealing, rollup flushing and retention eviction.
func durableOpts(dir string) Options {
	return Options{
		BlockPoints: 16,
		RetainRaw:   0,
		Retain10s:   0,
		Retain60s:   0,
		Dir:         dir,
		Fsync:       FsyncNever, // write-through; tests reopen in-process
		// Disable automatic snapshots unless a test asks for them.
		SnapshotEvery: -1,
	}
}

// fillSeeded ingests n pseudo-random samples across three nodes: realistic
// power levels, a sparse NaN-gapped IPMI channel, and per-node timestamp
// gaps (each second goes to one node only). Each seed owns the 10 000
// seconds from base + 10 000·seed, so fills with rising seeds keep every
// node's time moving forward.
func fillSeeded(t testing.TB, st *Store, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := []string{"node-a", "node-b", "node-c"}
	base := 1.7e9 + 1e4*float64(seed)
	for i := 0; i < n; i++ {
		node := nodes[rng.Intn(len(nodes))]
		s := Sample{
			PNode:      80 + 40*rng.Float64(),
			PCPU:       30 + 20*rng.Float64(),
			PMEM:       8 + 4*rng.Float64(),
			PNodePrime: 80 + 40*rng.Float64(),
			IPMI:       math.NaN(),
		}
		if i%5 == 0 {
			s.IPMI = s.PNode + rng.Float64()
		}
		if err := st.Ingest(node, base+float64(i), s); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

// storeImage renders every series the store can serve — each node and the
// aggregate, every channel, every resolution — through the wire JSON
// encoding, plus the structural half of Stats. Two stores with equal
// images answer every query identically, byte for byte.
func storeImage(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	targets := append([]string{""}, st.Nodes()...)
	for _, node := range targets {
		for _, ch := range Channels() {
			for _, res := range Resolutions() {
				body, err := st.QuerySeries(node, string(ch), 0, 4e9, int(res))
				if err != nil {
					t.Fatalf("QuerySeries(%q, %s, %d): %v", node, ch, res, err)
				}
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatalf("marshal series: %v", err)
				}
				buf.Write(b)
				buf.WriteByte('\n')
			}
		}
	}
	// Structural stats must survive recovery exactly; activity counters
	// (ingest/query/cache/WAL tallies since this process opened the store)
	// legitimately reset, so they are zeroed out of the comparison.
	stats := st.Stats()
	stats.Ingested, stats.Queries, stats.PointsReturned, stats.EvictedPoints = 0, 0, 0, 0
	stats.CacheHits, stats.CacheMisses, stats.CachePoints = 0, 0, 0
	stats.WALBytes, stats.WALFsyncs, stats.WALRecords, stats.ReplayedRecords = 0, 0, 0, 0
	stats.Snapshots, stats.SnapshotAgeSeconds = 0, 0
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	buf.Write(b)
	return buf.Bytes()
}

func TestOpenRequiresDir(t *testing.T) {
	leaktest.Check(t)
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir should fail")
	}
}

func TestParseFsyncPolicyRoundTrip(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncAlways, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy should reject unknown spellings")
	}
}

// TestRecoveryEquivalence is the recovery-equivalence property test: for
// ten seeded workloads (varying fsync policy, retention pressure, and
// snapshot cadence), a store that is persisted and reopened must serve
// byte-identical QuerySeries/Aggregate/Stats JSON.
func TestRecoveryEquivalence(t *testing.T) {
	leaktest.Check(t)
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(string(rune('0'+seed)), func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOpts(dir)
			n := 300
			switch seed % 3 {
			case 0:
				opts.SnapshotEvery = 100 // auto-snapshots mid-workload
				opts.Fsync = FsyncBatch
			case 1:
				opts.RetainRaw = 128 // retention evicts during the run
				opts.Retain10s = 64
				opts.Fsync = FsyncAlways
			case 2:
				opts.CachePoints = -1 // cache off; recovery must not depend on it
			}
			st, _, err := Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			fillSeeded(t, st, seed, n)
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
			if rec.LastSeq != uint64(n) {
				t.Fatalf("recovered LastSeq = %d, want %d", rec.LastSeq, n)
			}
			if len(rec.Damage) > 0 || len(rec.CorruptSnapshots) > 0 || rec.TornTail {
				t.Fatalf("clean shutdown produced dirty recovery: %+v", rec)
			}
			if got := storeImage(t, st2); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: recovered store image differs from pre-close image\npre:  %d bytes\npost: %d bytes", seed, len(want), len(got))
			}
		})
	}
}

// TestRecoverySecondReopenStable reopens twice: recovery must be a fixed
// point (the second open replays exactly what the first one persisted).
func TestRecoverySecondReopenStable(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	opts := durableOpts(dir)
	st, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillSeeded(t, st, 42, 120)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, _, err := Open(opts)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	img2 := storeImage(t, st2)
	if err := st2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st3, rec3, err := Open(opts)
	if err != nil {
		t.Fatalf("third Open: %v", err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Errorf("third Close: %v", err)
		}
	}()
	if got := storeImage(t, st3); !bytes.Equal(got, img2) {
		t.Fatal("second recovery diverged from the first")
	}
	if rec3.LastSeq != 120 {
		t.Fatalf("third open LastSeq = %d, want 120", rec3.LastSeq)
	}
}

// TestSnapshotPrunesWAL checks the retention contract: after two
// snapshots, at most two snapshot files remain and WAL segments fully
// covered by the older one are gone — but never the segments the older
// snapshot still needs.
func TestSnapshotPrunesWAL(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	st, _, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillSeeded(t, st, 1, 100)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("first Snapshot: %v", err)
	}
	fillSeeded(t, st, 2, 100)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	fillSeeded(t, st, 3, 50)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("third Snapshot: %v", err)
	}
	want := storeImage(t, st)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snaps, err := listSeqFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatalf("list snapshots: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots, want 2", len(snaps))
	}
	if snaps[0].seq != 200 || snaps[1].seq != 250 {
		t.Fatalf("retained snapshots cover %d and %d, want 200 and 250", snaps[0].seq, snaps[1].seq)
	}
	segs, err := listSeqFiles(dir, walPrefix, walSuffix)
	if err != nil {
		t.Fatalf("list wal segments: %v", err)
	}
	for _, seg := range segs {
		if seg.seq < 100 {
			t.Fatalf("segment %s should have been pruned (fully covered by the kept snapshot at 200)", filepath.Base(seg.path))
		}
	}

	// The whole point of keeping two: delete the newest snapshot outright
	// and recovery must still be complete.
	if err := os.Remove(snaps[1].path); err != nil {
		t.Fatalf("remove newest snapshot: %v", err)
	}
	st2, rec, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("reopen without newest snapshot: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if rec.SnapshotSeq != 200 || rec.LastSeq != 250 {
		t.Fatalf("fallback recovery: snapshot %d last %d, want 200 and 250", rec.SnapshotSeq, rec.LastSeq)
	}
	if got := storeImage(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovery from the older snapshot lost data")
	}
}

// TestWALRecordRoundTrip pins the record codec: encode → frame-scan →
// decode must reproduce the record exactly, NaN channels included.
func TestWALRecordRoundTrip(t *testing.T) {
	rec := walRecord{
		seq:  7,
		ts:   -1234567,
		node: "node/π",
		vals: [NumChannels]float64{1.5, math.NaN(), math.Inf(1), -0.0, 42},
	}
	framed, err := appendWALRecord([]byte(walMagic), &rec)
	if err != nil {
		t.Fatalf("appendWALRecord: %v", err)
	}
	var got walRecord
	applied, torn, damage := scanWALBytes(framed, func(r *walRecord) bool {
		got = *r
		return true
	})
	if applied != 1 || torn || damage != "" {
		t.Fatalf("scan: applied=%d torn=%v damage=%q", applied, torn, damage)
	}
	if got.seq != rec.seq || got.ts != rec.ts || got.node != rec.node {
		t.Fatalf("round trip: got %+v want %+v", got, rec)
	}
	for i := range rec.vals {
		if math.Float64bits(got.vals[i]) != math.Float64bits(rec.vals[i]) {
			t.Fatalf("channel %d: %x != %x", i, math.Float64bits(got.vals[i]), math.Float64bits(rec.vals[i]))
		}
	}
	if _, err := appendWALRecord(nil, &walRecord{node: strings.Repeat("x", MaxNodeIDLen+1)}); err == nil {
		t.Fatal("oversized node ID should fail to encode")
	}
}

// TestSnapshotDeterministic pins that serialising the same state twice
// yields the same bytes — the property that makes snapshot files
// comparable across runs and keeps the fuzz corpus stable — and that the
// CRC the writer keeps while it streams is the one-shot CRC of the body.
func TestSnapshotDeterministic(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	st, _, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	fillSeeded(t, st, 5, 80)
	file1, file2 := snapshotFile(t, st), snapshotFile(t, st)
	if !bytes.Equal(file1, file2) {
		t.Fatal("two cuts of a quiescent store serialise differently")
	}
	body := file1[len(snapMagic) : len(file1)-4]
	if !bytes.Equal(file1[len(file1)-4:], crcTrailer(body)) {
		t.Fatal("streamed CRC differs from the CRC of the whole body")
	}
	snap, err := decodeSnapshot(file1, st.opts)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if snap.lastSeq != 80 {
		t.Fatalf("snapshot covers %d, want 80", snap.lastSeq)
	}
}

// snapshotFile renders the file a snapshot of st would write now.
func snapshotFile(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, st.snapshotNow()); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestIngestAfterWALCloseFails pins the WAL-before-memory invariant: once
// the WAL cannot accept the record, Ingest must fail without applying.
func TestIngestAfterWALCloseFails(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	st, _, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillSeeded(t, st, 9, 10)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Ingest("node-a", 2e9, Sample{}); err == nil {
		t.Fatal("Ingest after Close should fail")
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := openWALSegment(dir, 0, FsyncBatch)
	if err != nil {
		b.Fatalf("openWALSegment: %v", err)
	}
	defer func() {
		if err := w.close(); err != nil {
			b.Errorf("close: %v", err)
		}
	}()
	vals := [NumChannels]float64{101.5, 55.25, 9.75, 102, math.NaN()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append("node-17", int64(i)*1000, &vals); err != nil {
			b.Fatalf("append: %v", err)
		}
	}
}

// storeWorkload deterministically generates the synthetic monitor workload
// for the store benchmarks: phase-programmed power plateaus (like the
// workload suite's phases) quantised to the sensors' 0.1 W resolution,
// with an IPMI reading every tenth second and NaN gaps in between.
func storeWorkload(r *rand.Rand, i int, prev *float64) Sample {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	base := 70 + 15*float64((i/30)%3)
	node := *prev
	if i == 0 || i%30 == 0 || r.Float64() < 0.4 {
		node = quant(base + 2*r.NormFloat64())
	}
	*prev = node
	s := Sample{PNode: node, PCPU: quant(0.65 * node), PMEM: quant(0.25 * node), PNodePrime: quant(node + 0.3), IPMI: math.NaN()}
	if i%10 == 0 {
		s.IPMI = node
	}
	return s
}

// BenchmarkStoreIngest measures the ingest path (five channels + two
// rollup resolutions per call) and reports the compressed bytes per stored
// point against the 16 B (8 B timestamp + 8 B float64) uncompressed
// baseline.
func BenchmarkStoreIngest(b *testing.B) {
	store := New(DefaultOptions())
	r := rand.New(rand.NewSource(1))
	var prev float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Ingest("node-00", float64(i), storeWorkload(r, i, &prev)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := store.Stats()
	b.ReportMetric(st.BytesPerPoint, "B/sample")
	b.ReportMetric(st.CompressionRatio, "x-compression")
}

// BenchmarkStoreIngestWAL is BenchmarkStoreIngest on a durable store with
// the default batch fsync policy: the delta between the two is the price
// of write-ahead logging every sample (the acceptance bar is <2x).
func BenchmarkStoreIngestWAL(b *testing.B) {
	opts := DefaultOptions()
	opts.Dir = b.TempDir()
	opts.Fsync = FsyncBatch
	opts.SnapshotEvery = -1
	store, _, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	r := rand.New(rand.NewSource(1))
	var prev float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Ingest("node-00", float64(i), storeWorkload(r, i, &prev)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := store.Stats()
	b.ReportMetric(float64(st.WALBytes)/float64(b.N), "walB/sample")
}

// BenchmarkStoreQuery measures decoding a 60 s raw window and a 10 s
// rollup window out of an hour of stored history.
func BenchmarkStoreQuery(b *testing.B) {
	store := New(DefaultOptions())
	r := rand.New(rand.NewSource(1))
	var prev float64
	const hour = 3600
	for i := 0; i < hour; i++ {
		if err := store.Ingest("node-00", float64(i), storeWorkload(r, i, &prev)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		from := float64((i * 60) % (hour - 60))
		raw, err := store.Query("node-00", ChanPNode, from, from+59, Raw)
		if err != nil {
			b.Fatal(err)
		}
		roll, err := store.Query("node-00", ChanPCPU, from, from+59, TenSeconds)
		if err != nil {
			b.Fatal(err)
		}
		pts += len(raw) + len(roll)
	}
	b.ReportMetric(float64(pts)/float64(b.N), "points/op")
}

func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	opts := durableOpts(dir)
	opts.BlockPoints = 512
	st, _, err := Open(opts)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	fillSeeded(b, st, 3, 5000)
	if err := st.Snapshot(); err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	fillSeeded(b, st, 4, 2000) // WAL tail on top of the snapshot
	if err := st.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rec, err := Open(opts)
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		if rec.LastSeq != 7000 {
			b.Fatalf("recovered LastSeq = %d, want 7000", rec.LastSeq)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
		// Closing wrote nothing new, but it did leave a fresh empty
		// segment behind; keep the directory from growing across
		// iterations by removing segments with no records.
		b.StartTimer()
	}
}

// crcTrailer renders the 4-byte CRC32 trailer for a snapshot body.
func crcTrailer(body []byte) []byte {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return crc[:]
}
