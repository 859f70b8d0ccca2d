// Durable store lifecycle: Open recovers a store from its data directory
// (newest valid snapshot + WAL tail), Snapshot writes a new full-state
// snapshot and prunes what it obsoletes, and a background flusher turns
// FsyncBatch into a bounded-loss guarantee.
//
// Recovery invariants:
//
//   - The newest snapshot that validates (CRC + every block decodes) wins;
//     corrupt ones are recorded in Recovery and skipped.
//   - WAL replay visits segments in sequence order, skips records the
//     snapshot already covers, and stops at the first torn tail, corrupt
//     frame, or sequence gap — everything applied is a strict prefix of
//     the ingest history, so recovery can never invent or reorder data.
//   - A fresh WAL segment starting at lastSeq+1 is always opened; the
//     store never appends after a torn tail.
//   - Pruning keeps the two newest snapshots and only deletes WAL
//     segments the OLDER one fully covers, so even losing the newest
//     snapshot to corruption still recovers the complete history.
package tsdb

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultSnapshotEvery is the default automatic snapshot cadence in WAL
// records (one record per Ingest call).
const DefaultSnapshotEvery = 1 << 16

// flushEvery is the FsyncBatch flush interval — the upper bound on how
// much acknowledged data a crash can lose under that policy.
const flushEvery = 100 * time.Millisecond

// Recovery reports what Open found on disk. It is informational: Open only
// fails on I/O errors, never on corruption (corruption truncates, it does
// not abort).
type Recovery struct {
	// SnapshotPath is the snapshot that was restored ("" when starting
	// from WAL alone) and SnapshotSeq the last WAL sequence it covers.
	SnapshotPath string
	SnapshotSeq  uint64
	// Replayed is the number of WAL records applied on top of the
	// snapshot; LastSeq the newest sequence in the recovered store.
	Replayed int
	LastSeq  uint64
	// TornTail reports that the newest readable segment ended mid-record —
	// the expected shape of a crash during an append, not corruption.
	TornTail bool
	// CorruptSnapshots lists snapshot files that failed validation and
	// Damage the WAL problem (if any) that stopped replay early. Both
	// empty on a clean recovery.
	CorruptSnapshots []string
	Damage           []string
}

// Open creates or recovers a durable store in opts.Dir. The returned
// Recovery describes what was found; callers that only care about the
// store may ignore it. The store must be Closed to drain the WAL.
func Open(opts Options) (*Store, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("tsdb: Open requires Options.Dir (use New for a memory-only store)")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("tsdb: create data dir: %w", err)
	}
	st := New(opts)
	st.dir = st.opts.Dir
	rec := &Recovery{}

	snaps, err := listSeqFiles(st.dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, fmt.Errorf("tsdb: list snapshots: %w", err)
	}
	st.snapshots.Store(int64(len(snaps)))
	for i := len(snaps) - 1; i >= 0; i-- { // newest first
		sf := snaps[i]
		data, rerr := os.ReadFile(sf.path)
		var snap *snapshotState
		if rerr == nil {
			snap, rerr = decodeSnapshot(data, st.opts)
		}
		if rerr != nil {
			rec.CorruptSnapshots = append(rec.CorruptSnapshots,
				fmt.Sprintf("%s: %v", filepath.Base(sf.path), rerr))
			continue
		}
		st.installSnapshot(snap)
		rec.SnapshotPath = sf.path
		rec.SnapshotSeq = snap.lastSeq
		if info, serr := os.Stat(sf.path); serr == nil {
			st.lastSnapUnix.Store(info.ModTime().UnixMilli())
		}
		break
	}

	segs, err := listSeqFiles(st.dir, walPrefix, walSuffix)
	if err != nil {
		return nil, nil, fmt.Errorf("tsdb: list wal segments: %w", err)
	}
	// Skip segments the snapshot fully covers (every record ≤ SnapshotSeq):
	// corruption there cannot matter, and replay must not stop on it.
	start := 0
	for i := range segs {
		if i+1 < len(segs) && segs[i+1].seq <= rec.SnapshotSeq+1 {
			start = i + 1
		}
	}
	last := rec.SnapshotSeq
	for _, seg := range segs[start:] {
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			return nil, nil, fmt.Errorf("tsdb: read wal segment: %w", rerr)
		}
		gap := false
		_, torn, damage := scanWALBytes(data, func(r *walRecord) bool {
			if r.seq <= last {
				return true // covered by the snapshot
			}
			if r.seq != last+1 {
				gap = true
				return false
			}
			if _, err := st.ingest(r.node, r.ts, &r.vals, false); err != nil {
				gap = true // cannot happen while opening, but stay safe
				return false
			}
			last = r.seq
			rec.Replayed++
			return true
		})
		if gap {
			rec.Damage = append(rec.Damage,
				fmt.Sprintf("%s: sequence gap after %d", filepath.Base(seg.path), last))
			break
		}
		if damage != "" {
			rec.Damage = append(rec.Damage,
				fmt.Sprintf("%s: %s", filepath.Base(seg.path), damage))
			break
		}
		if torn {
			rec.TornTail = true
			break // anything after a torn tail would be a sequence gap
		}
	}
	rec.LastSeq = last
	st.replayed.Store(int64(rec.Replayed))

	w, err := openWALSegment(st.dir, last, st.opts.Fsync)
	if err != nil {
		return nil, nil, err
	}
	st.wal = w
	if st.opts.SnapshotEvery > 0 {
		st.nextSnapAt.Store(last + uint64(st.opts.SnapshotEvery))
	}
	if st.opts.Fsync == FsyncBatch {
		st.flushStop = make(chan struct{})
		st.flushDone = make(chan struct{})
		go st.flusher()
	}
	return st, rec, nil
}

// installSnapshot adopts a decoded snapshot's shards, rewiring the
// store-wide eviction counter and cache (restored blocks get fresh cache
// epochs — epochs are per-process, never persisted).
func (st *Store) installSnapshot(snap *snapshotState) {
	for _, n := range snap.nodes {
		sh := &shard{}
		for ci, cs := range n.chans {
			for _, s := range []*series{cs.raw, cs.r10.ser, cs.r60.ser} {
				s.evicted = &st.evicted
				s.cache = st.cache
				if st.cache != nil {
					for _, blk := range s.blocks {
						blk.id = st.cache.nextEpoch()
					}
				}
			}
			sh.chans[ci] = cs
		}
		st.shards[n.name] = sh
	}
}

// flusher is the FsyncBatch background loop: one fsync per flushEvery
// tick. WAL errors are sticky, so a failed sync here surfaces on the next
// Ingest; the flusher just stops (nothing it retries can succeed).
func (st *Store) flusher() {
	defer close(st.flushDone)
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		select {
		case <-st.flushStop:
			return
		case <-t.C:
			if err := st.wal.sync(); err != nil {
				return
			}
		}
	}
}

// maybeSnapshot triggers an automatic snapshot once the WAL sequence
// crosses the next threshold. The compare-and-swap elects exactly one
// ingester and advances the threshold first, so a failing snapshot is
// retried next interval instead of on every call.
func (st *Store) maybeSnapshot(seq uint64) {
	if st.wal == nil || st.opts.SnapshotEvery <= 0 || seq == 0 {
		return
	}
	at := st.nextSnapAt.Load()
	if at == 0 || seq < at || !st.nextSnapAt.CompareAndSwap(at, seq+uint64(st.opts.SnapshotEvery)) {
		return
	}
	// Best-effort: a snapshot failure (full disk, stuck WAL) does not fail
	// the ingest that happened to cross the threshold — the WAL still has
	// every record, and the sticky WAL error surfaces on appends.
	_ = st.Snapshot()
}

// Snapshot writes a full-state snapshot covering everything ingested so
// far, rotates the WAL, and prunes snapshots and WAL segments the
// retention policy (keep two snapshots, keep the WAL back to the older
// one) no longer needs. Safe to call concurrently with ingest and queries;
// concurrent Snapshot calls serialise.
func (st *Store) Snapshot() error {
	if st.wal == nil {
		return fmt.Errorf("tsdb: memory-only store cannot snapshot (no data directory)")
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if _, err := writeSnapshotFile(st.dir, st.snapshotNow()); err != nil {
		return err
	}
	if err := st.wal.rotate(); err != nil {
		return err
	}
	if err := st.prune(); err != nil {
		return err
	}
	st.lastSnapUnix.Store(time.Now().UnixMilli())
	return nil
}

// snapshotNow takes a consistent cut of the store under every shard lock
// (sorted node order) and releases them before anything is written: the
// cut copies only what ingest may still write (see snapCut), so the stall
// is bounded by the open blocks, not the store. Holding st.mu.RLock across
// the shard locks keeps new shards from appearing mid-cut, and because
// every WAL append happens under a shard lock, wal.lastSeq() taken here is
// exactly the cut's coverage. A shard is released as soon as it is cut: it
// has been locked since before lastSeq was read, so its cut is its state
// at lastSeq.
func (st *Store) snapshotNow() *snapCut {
	st.mu.RLock()
	defer st.mu.RUnlock()
	nodes := make([]string, 0, len(st.shards))
	for n := range st.shards {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		st.shards[n].mu.Lock()
	}
	cut := &snapCut{lastSeq: st.wal.lastSeq(), nodes: make([]cutNode, 0, len(nodes))}
	sealed, open := 0, 0
	for _, n := range nodes {
		for _, cs := range st.shards[n].chans {
			for _, s := range [3]*series{cs.raw, cs.r10.ser, cs.r60.ser} {
				k := s.sealed()
				sealed += k
				if k < len(s.blocks) {
					open += len(s.blocks[k].bs.b)
				}
				open += maxOpenState
			}
		}
	}
	cut.sealed, cut.open = make([]*block, 0, sealed), make([]byte, 0, open)
	for _, n := range nodes {
		sh := st.shards[n]
		cut.add(n, sh)
		sh.mu.Unlock()
	}
	return cut
}

// prune removes all but the two newest snapshots, then the WAL segments
// fully covered by the older retained snapshot. With fewer than two
// snapshots on disk no WAL is deleted — the log must still reconstruct
// everything in case the only snapshot is lost.
func (st *Store) prune() error {
	snaps, err := listSeqFiles(st.dir, snapPrefix, snapSuffix)
	if err != nil {
		return fmt.Errorf("tsdb: list snapshots: %w", err)
	}
	const keepSnaps = 2
	drop := max(0, len(snaps)-keepSnaps)
	for _, sf := range snaps[:drop] {
		if err := os.Remove(sf.path); err != nil {
			return fmt.Errorf("tsdb: prune snapshot: %w", err)
		}
	}
	snaps = snaps[drop:]
	st.snapshots.Store(int64(len(snaps)))
	if len(snaps) == keepSnaps {
		keepSeq := snaps[0].seq
		segs, err := listSeqFiles(st.dir, walPrefix, walSuffix)
		if err != nil {
			return fmt.Errorf("tsdb: list wal segments: %w", err)
		}
		// A segment is fully ≤ keepSeq exactly when its successor starts at
		// or before keepSeq+1; the newest segment (the live one) never is.
		for i, seg := range segs {
			if i+1 >= len(segs) || segs[i+1].seq > keepSeq+1 {
				break
			}
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("tsdb: prune wal segment: %w", err)
			}
		}
	}
	return syncDir(st.dir)
}

// The store's two families of sequence-numbered files: snapshots, named
// for the last WAL sequence they cover, and WAL segments, named for the
// first sequence they hold.
const (
	snapPrefix, snapSuffix = "snap-", ".snap"
	walPrefix, walSuffix   = "wal-", ".log"
)

// seqName renders the canonical name of the file of seq in a family:
// prefix, seq as 16 hex digits, suffix.
func seqName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, suffix)
}

// seqFile is one discovered file of a family.
type seqFile struct {
	path string
	seq  uint64
}

// listSeqFiles finds dir's files of a family sorted by sequence, oldest
// first. Names that merely look similar — a snapshot's temp file from an
// interrupted write (.tmp suffix) among them — are ignored.
func listSeqFiles(dir, prefix, suffix string) ([]seqFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []seqFile
	for _, e := range entries {
		mid, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok || e.IsDir() {
			continue
		}
		hex, ok := strings.CutSuffix(mid, suffix)
		if !ok || len(hex) != 16 {
			continue
		}
		if seq, err := strconv.ParseUint(hex, 16, 64); err == nil {
			files = append(files, seqFile{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	slices.SortFunc(files, func(a, b seqFile) int { return cmp.Compare(a.seq, b.seq) })
	return files, nil
}
