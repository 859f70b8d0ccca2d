package persisttest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// smallOpts sizes stores so short workloads still seal blocks and flush
// rollup buckets.
func smallOpts() tsdb.Options {
	return tsdb.Options{BlockPoints: 16}
}

// recoverDir opens the (possibly corrupted) directory and fails the test
// on an I/O error — corruption must truncate, never abort. The store is
// closed through t.Cleanup-free explicit calls at each site instead, so
// the matrix loops can bound their footprint; this helper only shields
// against panics, converting one into a test failure that names the
// injection.
func recoverDir(t *testing.T, dir, label string, opts tsdb.Options) (st *tsdb.Store, rec *tsdb.Recovery) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: recovery panicked: %v", label, p)
		}
	}()
	opts.Dir = dir
	opts.Fsync = tsdb.FsyncNever
	opts.SnapshotEvery = -1
	st, rec, err := tsdb.Open(opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	return st, rec
}

// checkPrefix asserts the recovered store is exactly the workload prefix
// recovery claims it is: rec.LastSeq selects the reference image and the
// store must match it byte for byte.
func checkPrefix(t *testing.T, st *tsdb.Store, rec *tsdb.Recovery, prefixes [][]byte, label string) {
	t.Helper()
	if rec.LastSeq > uint64(len(prefixes)-1) {
		t.Fatalf("%s: recovered LastSeq %d beyond the %d-op workload", label, rec.LastSeq, len(prefixes)-1)
	}
	img, err := Image(st)
	if err != nil {
		t.Fatalf("%s: image: %v", label, err)
	}
	if !bytes.Equal(img, prefixes[rec.LastSeq]) {
		t.Fatalf("%s: recovered store is not the claimed %d-op prefix", label, rec.LastSeq)
	}
}

// expectedRecords computes how many whole WAL records a truncation of the
// tail segment at byte offset cut preserves, given the ops the segment
// holds in order.
func expectedRecords(segOps []Op, cut int) int {
	off := WALHeaderSize
	for i, op := range segOps {
		off += FrameSize(op)
		if off > cut {
			return i
		}
	}
	return len(segOps)
}

// TestTornTailEveryByte is the exhaustive kill-point matrix: the WAL is
// truncated at EVERY byte offset, and for each one recovery must yield
// exactly the maximal prefix the remaining bytes contain — never a panic,
// never a record less, never invented data.
func TestTornTailEveryByte(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	ops := Workload(1, 40)
	opts := smallOpts()
	if err := Build(src, opts, ops); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	walPath, err := NewestWAL(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(base, "work")
	for cut := 0; cut <= len(data); cut++ {
		label := fmt.Sprintf("cut=%d", cut)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		if err := Truncate(filepath.Join(work, filepath.Base(walPath)), cut); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		wantK := expectedRecords(ops, cut)
		if rec.LastSeq != uint64(wantK) {
			t.Fatalf("%s: recovered %d records, the bytes contain %d", label, rec.LastSeq, wantK)
		}
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestTornTailAfterSnapshot runs the same every-byte matrix on the tail
// segment of a directory that also has a snapshot: recovery must restore
// the snapshot and then exactly the records the torn tail still holds —
// the snapshot floor is never lost, whatever the truncation point.
func TestTornTailAfterSnapshot(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	const total, snapAt = 120, 80
	ops := Workload(2, total)
	opts := smallOpts()
	if err := Build(src, opts, ops, snapAt); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	walPath, err := NewestWAL(src) // the post-rotation segment: ops[snapAt:]
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(base, "work")
	for cut := 0; cut <= len(data); cut++ {
		label := fmt.Sprintf("cut=%d", cut)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		if err := Truncate(filepath.Join(work, filepath.Base(walPath)), cut); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		if rec.LastSeq < snapAt {
			t.Fatalf("%s: recovery lost snapshot-covered data (LastSeq %d < %d)", label, rec.LastSeq, snapAt)
		}
		wantK := snapAt + expectedRecords(ops[snapAt:], cut)
		if rec.LastSeq != uint64(wantK) {
			t.Fatalf("%s: recovered %d records, want %d", label, rec.LastSeq, wantK)
		}
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestBitFlipWAL flips one bit at every byte offset of the WAL: the CRC
// must catch each flip (flips are linear in GF(2), so a single one can
// never cancel), recovery must keep every record before the damaged frame
// and drop the rest — and never panic.
func TestBitFlipWAL(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	ops := Workload(3, 30)
	opts := smallOpts()
	if err := Build(src, opts, ops); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	walPath, err := NewestWAL(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(base, "work")
	for off := 0; off < len(data); off++ {
		label := fmt.Sprintf("flip=%d", off)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		if err := FlipBit(filepath.Join(work, filepath.Base(walPath)), off, uint(off*7)); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		// A flip in the magic kills the segment (0 records); a flip inside
		// record i's frame kills record i and everything after it.
		wantK := 0
		if off >= WALHeaderSize {
			wantK = expectedRecords(ops, off)
		}
		if rec.LastSeq != uint64(wantK) {
			t.Fatalf("%s: recovered %d records, want %d", label, rec.LastSeq, wantK)
		}
		if rec.LastSeq != uint64(len(ops)) && len(rec.Damage) == 0 && !rec.TornTail {
			t.Fatalf("%s: lossy recovery reported neither damage nor a torn tail", label)
		}
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestCorruptNewestSnapshotRecoversFully is the payoff of the keep-two
// retention policy: flip bits anywhere in the NEWEST snapshot and
// recovery must still reproduce the complete history, because the older
// snapshot plus the retained WAL tail covers everything.
func TestCorruptNewestSnapshotRecoversFully(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	const total = 160
	ops := Workload(4, total)
	opts := smallOpts()
	if err := Build(src, opts, ops, 60, 110); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	snapPath, err := NewestSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(base, "work")
	for off := 0; off < int(info.Size()); off += 41 {
		label := fmt.Sprintf("snapflip=%d", off)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		if err := FlipBit(filepath.Join(work, filepath.Base(snapPath)), off, uint(off*3)); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		if len(rec.CorruptSnapshots) != 1 {
			t.Fatalf("%s: corrupt snapshots reported: %v, want exactly one", label, rec.CorruptSnapshots)
		}
		if rec.LastSeq != total {
			t.Fatalf("%s: recovered %d of %d records despite the fallback snapshot", label, rec.LastSeq, total)
		}
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestPartialSnapshotRecoversFully truncates the newest snapshot at a
// spread of lengths (a crash mid-snapshot-write that somehow bypassed the
// tmp+rename dance, or a torn sector): every truncation must fail
// validation as a unit and recovery must fall back to full history.
func TestPartialSnapshotRecoversFully(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	const total = 160
	ops := Workload(5, total)
	opts := smallOpts()
	if err := Build(src, opts, ops, 60, 110); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	snapPath, err := NewestSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	size := int(info.Size())
	work := filepath.Join(base, "work")
	for cut := 0; cut < size; cut += 29 {
		label := fmt.Sprintf("snapcut=%d", cut)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		if err := Truncate(filepath.Join(work, filepath.Base(snapPath)), cut); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		if rec.LastSeq != total {
			t.Fatalf("%s: recovered %d of %d records", label, rec.LastSeq, total)
		}
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}

// TestAllSnapshotsLostIsBoundedNotFatal deletes every snapshot from a
// directory whose old WAL segments were already pruned: recovery cannot
// reconstruct the pruned history (the sequence would have a gap), so it
// must come up EMPTY and say why — never panic, never serve a hole-y
// series as if it were complete.
func TestAllSnapshotsLostIsBoundedNotFatal(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	ops := Workload(6, 160)
	opts := smallOpts()
	if err := Build(src, opts, ops, 60, 110); err != nil {
		t.Fatalf("Build: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(src, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %v (%v)", snaps, err)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	st, rec := recoverDir(t, src, "no-snapshots", opts)
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if rec.LastSeq != 0 || len(st.Nodes()) != 0 {
		t.Fatalf("recovery without snapshots over a pruned WAL should be empty, got LastSeq %d, %d nodes", rec.LastSeq, len(st.Nodes()))
	}
	if len(rec.Damage) == 0 {
		t.Fatal("empty recovery must report why (sequence gap)")
	}
}

// TestGarbageScribbles overwrites random WAL ranges with random bytes:
// whatever the damage, recovery yields the prefix it claims and survives.
func TestGarbageScribbles(t *testing.T) {
	leaktest.Check(t)
	base := t.TempDir()
	src := filepath.Join(base, "src")
	ops := Workload(7, 60)
	opts := smallOpts()
	if err := Build(src, opts, ops); err != nil {
		t.Fatalf("Build: %v", err)
	}
	prefixes, err := PrefixImages(opts, ops)
	if err != nil {
		t.Fatalf("PrefixImages: %v", err)
	}
	walPath, err := NewestWAL(src)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	work := filepath.Join(base, "work")
	for trial := 0; trial < 25; trial++ {
		label := fmt.Sprintf("scribble=%d", trial)
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := CopyDir(src, work); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), orig...)
		start := rng.Intn(len(data))
		n := 1 + rng.Intn(64)
		for i := start; i < len(data) && i < start+n; i++ {
			data[i] = byte(rng.Intn(256))
		}
		if err := os.WriteFile(filepath.Join(work, filepath.Base(walPath)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, rec := recoverDir(t, work, label, opts)
		checkPrefix(t, st, rec, prefixes, label)
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
	}
}
