// Snapshot encoding for the durable store. A snapshot is a full, exact
// image of the store's in-memory state at one WAL sequence number: every
// block's compressed bytes plus the encoder state needed to keep appending
// to the open block (XOR predecessors, zero windows, delta-of-delta
// context, trailing free bits), and each rollup's open-bucket aggregator.
// Restoring a snapshot and replaying the WAL tail therefore reproduces the
// pre-crash store bit for bit: sealed blocks are copied verbatim and the
// replayed tail re-encodes through the same deterministic encoder.
//
// File layout (big-endian, like the WAL):
//
//	snap-<last covered seq, 16 hex digits>.snap
//	magic "HRPMSNP1"
//	body:
//	  u64 last covered WAL sequence
//	  u32 node count
//	  per node (sorted by ID):
//	    u16 ID length | ID bytes
//	    per channel (ingest order): series(raw), series+open(10s),
//	                                series+open(60s)
//	u32 CRC32 of the body
//
// One series is: u32 block count, then per block u32 n, i64 first/last/
// tDelta, per chain u64 XOR predecessor + u8 leading + u8 trailing, u8
// free bits, u32 byte length + the compressed bytes. A rollup's open
// bucket is u8 open, and when open i64 bucket start, i64 count, f64
// mean/m2/min/max (the exact Welford accumulator).
//
// A snapshot is serialised from a cut the store takes under its shard locks
// (Store.snapshotNow) and streamed to the file after they are released, the
// CRC computed as the bytes go out. Snapshots are written to a temp file,
// fsynced, renamed into place and the directory fsynced — a crash
// mid-write leaves only a temp file that recovery ignores. The trailing CRC
// covers the whole body, so a torn or bit-flipped snapshot is rejected as
// a unit and recovery falls back to the previous snapshot (the rotation
// policy always keeps two).
package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"highrpm/internal/stats"
)

const snapMagic = "HRPMSNP1"

// snapNode is one node's decoded snapshot state.
type snapNode struct {
	name  string
	chans [NumChannels]*channelSeries
}

// snapshotState is a decoded snapshot: the last WAL sequence it covers and
// every node's series, ready to install into a store.
type snapshotState struct {
	lastSeq uint64
	nodes   []snapNode
}

// --- encoding ---------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], v)
	return append(b, s[:]...)
}

func appendI64(b []byte, v int64) []byte     { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte   { return appendU64(b, math.Float64bits(v)) }
func appendString(b []byte, s string) []byte { return append(appendU16(b, uint16(len(s))), s...) }

// appendRollupOpen serialises the open-bucket aggregator.
func appendRollupOpen(b []byte, r *rollup) []byte {
	if !r.open {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendI64(b, r.start)
	b = appendI64(b, int64(r.agg.N()))
	b = appendF64(b, r.agg.Mean())
	b = appendF64(b, r.agg.M2())
	b = appendF64(b, r.agg.Min())
	b = appendF64(b, r.agg.Max())
	return b
}

// appendBlockHeader serialises a block's header up to and including the
// length of its compressed bytes, which follow it in the file. It carries
// the encoder state of the open block (sealed blocks carry theirs too — it
// is dead weight for them but keeps the format uniform).
func appendBlockHeader(b []byte, blk *block) []byte {
	b = appendU32(b, uint32(blk.n))
	b = appendI64(b, blk.first)
	b = appendI64(b, blk.last)
	b = appendI64(b, blk.tDelta)
	for i := 0; i < blk.k; i++ {
		b = appendU64(b, blk.val[i])
		b = append(b, blk.leading[i], blk.trailing[i])
	}
	b = append(b, blk.bs.free)
	return appendU32(b, uint32(len(blk.bs.b)))
}

// snapCut is a consistent cut of a store, taken under the shard locks and
// written after they are released. What ingest may still write is copied
// in its serialised form: every series' open block and every rollup's open
// bucket go to open. What it cannot is shared: the sealed blocks, whose
// pointers are copied to sealed, since retention nils evicted slots of a
// live series' slice in place. Both are single buffers, so a snapshot
// leaves no small garbage among the live blocks.
type snapCut struct {
	lastSeq uint64
	nodes   []cutNode
	sealed  []*block
	open    []byte
}

// cutNode is one node of a cut: per channel, its raw, 10 s and 60 s series
// in file order.
type cutNode struct {
	name   string
	series [NumChannels][3]cutSeries
}

// cutSeries locates one series in its cut: blocks in all, the sealed ones
// at sealed[sealedAt:sealedEnd], then open[openAt:openEnd] — the open block
// if any and, for a rollup, the open bucket.
type cutSeries struct {
	blocks              int
	sealedAt, sealedEnd int
	openAt, openEnd     int
}

// maxOpenState bounds what a series adds to a cut's open buffer besides its
// open block's compressed bytes: that block's header and a rollup's open
// bucket, so a cut can size the buffer before it copies anything.
const maxOpenState = 4 + 3*8 + rollupChains*10 + 1 + 4 + 1 + 6*8

// add cuts node name out of sh, whose lock the caller holds.
func (c *snapCut) add(name string, sh *shard) {
	n := cutNode{name: name}
	for ci, cs := range sh.chans {
		n.series[ci] = [3]cutSeries{c.series(cs.raw, nil), c.series(cs.r10.ser, cs.r10), c.series(cs.r60.ser, cs.r60)}
	}
	c.nodes = append(c.nodes, n)
}

// series cuts s and, when s is a rollup's, the rollup's open bucket.
func (c *snapCut) series(s *series, ru *rollup) cutSeries {
	sealed := s.sealed()
	cs := cutSeries{blocks: len(s.blocks), sealedAt: len(c.sealed), openAt: len(c.open)}
	c.sealed = append(c.sealed, s.blocks[:sealed]...)
	if sealed < len(s.blocks) {
		blk := s.blocks[sealed]
		c.open = append(appendBlockHeader(c.open, blk), blk.bs.b...)
	}
	if ru != nil {
		c.open = appendRollupOpen(c.open, ru)
	}
	cs.sealedEnd, cs.openEnd = len(c.sealed), len(c.open)
	return cs
}

// snapWriter streams one snapshot body to w with a running CRC32 of every
// byte. Fixed-width fields are framed in b, a scratch reused for the whole
// snapshot; block bytes go to w as they lie, so the scratch holds at most
// the fields between two blocks. The first error sticks.
type snapWriter struct {
	w   io.Writer
	crc uint32
	b   []byte
	err error
}

// emit writes p as body bytes.
func (sw *snapWriter) emit(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	_, sw.err = sw.w.Write(p)
}

// flush emits the framed fields and empties the scratch.
func (sw *snapWriter) flush() {
	sw.emit(sw.b)
	sw.b = sw.b[:0]
}

// writeSnapshot writes the file image of cut to w: the magic, the body
// streamed node by node in the cut's sorted order, and the body's CRC32.
// The bytes are a pure function of the cut.
func writeSnapshot(w io.Writer, cut *snapCut) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	sw := snapWriter{w: w}
	sw.b = appendU64(sw.b, cut.lastSeq)
	sw.b = appendU32(sw.b, uint32(len(cut.nodes)))
	for i := range cut.nodes {
		n := &cut.nodes[i]
		sw.b = appendString(sw.b, n.name)
		for ci := range n.series {
			for _, cs := range n.series[ci] {
				sw.b = appendU32(sw.b, uint32(cs.blocks))
				for _, blk := range cut.sealed[cs.sealedAt:cs.sealedEnd] {
					sw.b = appendBlockHeader(sw.b, blk)
					sw.flush()
					sw.emit(blk.bs.b)
				}
				sw.flush()
				sw.emit(cut.open[cs.openAt:cs.openEnd])
			}
		}
	}
	sw.flush()
	if sw.err != nil {
		return sw.err
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(sw.b[:0], sw.crc))
	return err
}

// --- decoding ---------------------------------------------------------------

// snapReader is a bounds-checked cursor over snapshot bytes. The first
// failed read poisons it; every later read returns the zero value, and the
// caller checks err once at the end of a parse unit.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("tsdb: snapshot truncated reading %s at offset %d", what, r.off)
	}
}

func (r *snapReader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *snapReader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *snapReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) i64(what string) int64   { return int64(r.u64(what)) }
func (r *snapReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *snapReader) bytes(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *snapReader) str(what string) string {
	n := int(r.u16(what))
	if r.err != nil || r.off+n > len(r.b) {
		r.fail(what)
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// readSeries parses and validates one series into s: every block must
// decode cleanly to exactly its claimed point count with matching first/
// last timestamps, so an installed snapshot can never poison queries.
func readSeries(r *snapReader, s *series, k int) error {
	blocks := int(r.u32("block count"))
	var c cursor
	for bi := 0; bi < blocks && r.err == nil; bi++ {
		blk := newBlock(k)
		blk.n = int(r.u32("block points"))
		blk.first = r.i64("block first")
		blk.last = r.i64("block last")
		blk.tDelta = r.i64("block tDelta")
		for i := 0; i < k; i++ {
			blk.val[i] = r.u64("chain predecessor")
			blk.leading[i] = r.u8("chain leading")
			blk.trailing[i] = r.u8("chain trailing")
		}
		blk.bs.free = r.u8("block free bits")
		raw := r.bytes("block bytes")
		if r.err != nil {
			break
		}
		blk.bs.b = append([]byte(nil), raw...)
		if blk.n < 0 || blk.n > 8*len(blk.bs.b)+1 {
			return fmt.Errorf("tsdb: snapshot block claims %d points in %d bytes", blk.n, len(blk.bs.b))
		}
		var (
			count       int
			first, last int64
		)
		c.reset()
		err := blk.decodeWith(&c, func(t int64, vals []float64) {
			if count == 0 {
				first = t
			}
			last = t
			count++
		})
		if err != nil {
			return fmt.Errorf("tsdb: snapshot block does not decode: %w", err)
		}
		if count != blk.n || (blk.n > 0 && (first != blk.first || last != blk.last)) {
			return fmt.Errorf("tsdb: snapshot block decodes to %d points [%d,%d], header says %d [%d,%d]",
				count, first, last, blk.n, blk.first, blk.last)
		}
		s.blocks = append(s.blocks, blk)
		s.points += blk.n
	}
	return r.err
}

// readRollupOpen parses the open-bucket aggregator into ru.
func readRollupOpen(r *snapReader, ru *rollup) error {
	open := r.u8("rollup open flag")
	if r.err != nil || open == 0 {
		return r.err
	}
	ru.open = true
	ru.start = r.i64("rollup bucket start")
	n := r.i64("rollup bucket count")
	mean := r.f64("rollup mean")
	m2 := r.f64("rollup m2")
	min := r.f64("rollup min")
	max := r.f64("rollup max")
	if r.err != nil {
		return r.err
	}
	if n < 0 || n > (1<<40) {
		return fmt.Errorf("tsdb: snapshot rollup bucket claims %d observations", n)
	}
	ru.agg = stats.RestoreRunning(int(n), mean, m2, min, max)
	return nil
}

// decodeSnapshot parses and validates a full snapshot file image: magic,
// CRC-checked body, and every block decode-verified. opts sizes the
// restored series exactly like New does.
func decodeSnapshot(data []byte, opts Options) (*snapshotState, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("tsdb: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("tsdb: bad snapshot magic")
	}
	body := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("tsdb: snapshot CRC mismatch")
	}
	r := &snapReader{b: body}
	st := &snapshotState{lastSeq: r.u64("last sequence")}
	nodeCount := int(r.u32("node count"))
	for ni := 0; ni < nodeCount && r.err == nil; ni++ {
		n := snapNode{name: r.str("node ID")}
		for ci := range n.chans {
			cs := newChannelSeries(opts, nil, nil)
			if err := readSeries(r, cs.raw, 1); err != nil {
				return nil, err
			}
			if err := readSeries(r, cs.r10.ser, rollupChains); err != nil {
				return nil, err
			}
			if err := readRollupOpen(r, cs.r10); err != nil {
				return nil, err
			}
			if err := readSeries(r, cs.r60.ser, rollupChains); err != nil {
				return nil, err
			}
			if err := readRollupOpen(r, cs.r60); err != nil {
				return nil, err
			}
			n.chans[ci] = cs
		}
		st.nodes = append(st.nodes, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("tsdb: snapshot has %d trailing bytes", len(body)-r.off)
	}
	for i := 1; i < len(st.nodes); i++ {
		if st.nodes[i].name <= st.nodes[i-1].name {
			return nil, fmt.Errorf("tsdb: snapshot nodes not sorted (%q after %q)", st.nodes[i].name, st.nodes[i-1].name)
		}
	}
	return st, nil
}

// --- files ------------------------------------------------------------------

// snapshotName renders the canonical snapshot filename for the last WAL
// sequence it covers.
func snapshotName(lastSeq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", lastSeq)
}

// snapFile is one discovered snapshot file.
type snapFile struct {
	path    string
	lastSeq uint64
}

// listSnapshots finds the dir's snapshots sorted newest first. Temp files
// from interrupted writes (.tmp suffix) are ignored.
func listSnapshots(dir string) ([]snapFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
		if len(hexpart) != 16 {
			continue
		}
		seq, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil {
			continue
		}
		snaps = append(snaps, snapFile{path: filepath.Join(dir, name), lastSeq: seq})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lastSeq > snaps[j].lastSeq })
	return snaps, nil
}

// snapWriteBuf sizes the buffer a snapshot file is written through: large
// enough that the file costs a few hundred writes, not one per block.
const snapWriteBuf = 64 << 10

// writeSnapshotFile writes cut atomically: temp file, fsync, rename,
// directory fsync. Only after the rename is the snapshot visible to
// recovery, so a crash mid-write is indistinguishable from no snapshot.
func writeSnapshotFile(dir string, cut *snapCut) (string, error) {
	path := filepath.Join(dir, snapshotName(cut.lastSeq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("tsdb: snapshot temp: %w", err)
	}
	bw := bufio.NewWriterSize(f, snapWriteBuf)
	werr := writeSnapshot(bw, cut)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("tsdb: snapshot write: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("tsdb: snapshot rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// syncDir fsyncs a directory so renames and removals in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tsdb: open dir for sync: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil && cerr != nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("tsdb: dir sync: %w", serr)
	}
	return nil
}
