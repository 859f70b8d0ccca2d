// Write-ahead log for the durable store. Every accepted Ingest appends one
// record — node ID, millisecond timestamp, and the five channel values —
// to the current WAL segment before it touches the in-memory series, so a
// process crash loses at most the records not yet flushed (bounded by the
// fsync policy). Records are length-prefixed and CRC32-checked; replay
// stops at the first torn or corrupt frame and everything before it is a
// valid prefix of the ingest history.
//
// Segment layout:
//
//	wal-<first seq, 16 hex digits>.log
//	magic "HRPMWAL1"
//	record*: u32 payload length | u32 CRC32(payload) | payload
//	payload: u64 seq | u64 timestamp (int64 ms bits) | u8 node length |
//	         node bytes | NumChannels × u64 (float64 bits)
//
// All integers are big-endian, matching the cluster wire framing. Sequence
// numbers are global, strictly increasing, and continue across segments;
// snapshots record the last sequence they cover so recovery replays only
// the tail.
package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const walMagic = "HRPMWAL1"

// maxWALRecord caps one record's payload so a corrupted length prefix can
// never force a large allocation: the real maximum is 8+8+1+255+8×5 bytes.
const maxWALRecord = 4096

// MaxNodeIDLen bounds the node ID a WAL record can carry (u8 length
// field). The cluster service refuses a longer ID before it reaches any
// store, so an in-memory and a durable store keep the same nodes.
const MaxNodeIDLen = 255

// FsyncPolicy selects when the WAL is fsynced to stable storage.
type FsyncPolicy int

const (
	// FsyncBatch (the default) groups fsyncs: appends land in the OS
	// buffer immediately and a background flusher fsyncs every 100 ms.
	// A crash loses at most one flush interval of
	// unsealed tail.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways fsyncs after every append: no acknowledged sample is
	// ever lost, at the cost of one fsync per ingest.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache: a process crash
	// loses nothing (appends are written through on every call), a machine
	// crash loses whatever the kernel had not written back.
	FsyncNever
)

// String renders the policy as its flag spelling (batch, always, never).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "batch"
	}
}

// ParseFsyncPolicy parses the flag spelling produced by String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("tsdb: unknown fsync policy %q (want always, batch or never)", s)
}

// walRecord is one decoded WAL entry: the arguments of one Ingest call
// after timestamp rounding, plus its global sequence number.
type walRecord struct {
	seq  uint64
	ts   int64 // milliseconds
	node string
	vals [NumChannels]float64
}

// appendWALRecord serialises rec onto dst (framing included) and returns
// the extended slice.
func appendWALRecord(dst []byte, rec *walRecord) ([]byte, error) {
	if len(rec.node) > MaxNodeIDLen {
		return dst, fmt.Errorf("tsdb: node ID %q exceeds %d bytes", rec.node, MaxNodeIDLen)
	}
	payloadLen := 8 + 8 + 1 + len(rec.node) + 8*NumChannels
	base := len(dst)
	dst = append(dst, make([]byte, 8+payloadLen)...)
	binary.BigEndian.PutUint32(dst[base:], uint32(payloadLen))
	p := dst[base+8:]
	binary.BigEndian.PutUint64(p[0:], rec.seq)
	binary.BigEndian.PutUint64(p[8:], uint64(rec.ts))
	p[16] = byte(len(rec.node))
	copy(p[17:], rec.node)
	off := 17 + len(rec.node)
	for i, v := range rec.vals {
		binary.BigEndian.PutUint64(p[off+8*i:], math.Float64bits(v))
	}
	binary.BigEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(p))
	return dst, nil
}

// decodeWALRecord parses one payload. The payload length must match the
// declared node length exactly — trailing garbage is corruption, not slack.
func decodeWALRecord(p []byte, rec *walRecord) error {
	if len(p) < 17 {
		return fmt.Errorf("tsdb: wal record payload %d bytes, want >= 17", len(p))
	}
	nodeLen := int(p[16])
	want := 17 + nodeLen + 8*NumChannels
	if len(p) != want {
		return fmt.Errorf("tsdb: wal record payload %d bytes, want %d for node length %d", len(p), want, nodeLen)
	}
	rec.seq = binary.BigEndian.Uint64(p[0:])
	rec.ts = int64(binary.BigEndian.Uint64(p[8:]))
	rec.node = string(p[17 : 17+nodeLen])
	off := 17 + nodeLen
	for i := range rec.vals {
		rec.vals[i] = math.Float64frombits(binary.BigEndian.Uint64(p[off+8*i:]))
	}
	return nil
}

// scanWALBytes replays one segment's bytes. apply returning false stops the
// scan. The return values classify how the scan ended: applied is the
// number of records handed to apply, torn reports a clean truncation mid-
// record (the expected shape of a crash during an append), and damage is a
// non-empty description for anything else that stopped the scan early (bad
// magic, CRC mismatch, oversized or malformed frame). torn and damage are
// both zero on a clean end-of-segment.
func scanWALBytes(data []byte, apply func(rec *walRecord) bool) (applied int, torn bool, damage string) {
	if len(data) < len(walMagic) {
		// A crash between creating the segment and completing the header
		// leaves a short (possibly empty) file: a torn tail, not damage.
		return 0, true, ""
	}
	if string(data[:len(walMagic)]) != walMagic {
		return 0, false, "bad segment magic"
	}
	off := len(walMagic)
	var rec walRecord
	for off < len(data) {
		if len(data)-off < 8 {
			return applied, true, ""
		}
		payloadLen := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if payloadLen > maxWALRecord {
			return applied, false, fmt.Sprintf("record at offset %d claims %d bytes (max %d)", off, payloadLen, maxWALRecord)
		}
		if len(data)-off-8 < payloadLen {
			return applied, true, ""
		}
		payload := data[off+8 : off+8+payloadLen]
		if crc32.ChecksumIEEE(payload) != crc {
			return applied, false, fmt.Sprintf("CRC mismatch at offset %d", off)
		}
		if err := decodeWALRecord(payload, &rec); err != nil {
			return applied, false, fmt.Sprintf("record at offset %d: %v", off, err)
		}
		off += 8 + payloadLen
		applied++
		if !apply(&rec) {
			return applied, false, ""
		}
	}
	return applied, false, ""
}

// walSegmentName renders the canonical segment filename for a first
// sequence number.
func walSegmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

// walSegment is one discovered segment file.
type walSegment struct {
	path     string
	firstSeq uint64
}

// listWALSegments finds the dir's segments sorted by first sequence.
// Filenames that merely look similar are ignored.
func listWALSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		if len(hexpart) != 16 {
			continue
		}
		seq, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil {
			continue
		}
		segs = append(segs, walSegment{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// wal is the open write side of the log: the current segment file behind a
// buffered writer, the global sequence counter, and the accounting the
// store surfaces through Stats. All methods are called with mu held by the
// owning persister unless documented otherwise.
type wal struct {
	mu      sync.Mutex
	dir     string
	policy  FsyncPolicy
	f       *os.File
	w       *bufio.Writer
	seq     uint64 // last assigned sequence number
	scratch []byte
	stuck   error // sticky I/O error; once set every append fails with it

	bytes   atomic.Int64
	fsyncs  atomic.Int64
	records atomic.Int64
}

// openWALSegment starts a fresh segment whose first record will carry
// firstSeq. An existing file of the same name is truncated — that only
// happens when a previous Open crashed before appending anything, so its
// contents are at most a bare header.
func openWALSegment(dir string, lastSeq uint64, policy FsyncPolicy) (*wal, error) {
	path := filepath.Join(dir, walSegmentName(lastSeq+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tsdb: open wal segment: %w", err)
	}
	w := &wal{dir: dir, policy: policy, f: f, w: bufio.NewWriterSize(f, 1<<16), seq: lastSeq}
	if _, err := w.w.WriteString(walMagic); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("tsdb: write wal header: %w", err)
	}
	w.bytes.Add(int64(len(walMagic)))
	return w, nil
}

// append logs one ingest and returns its sequence number. Callers hold the
// ingesting shard's lock, which is what keeps per-node WAL order identical
// to in-memory apply order.
func (w *wal) append(node string, ts int64, vals *[NumChannels]float64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stuck != nil {
		return 0, w.stuck
	}
	rec := walRecord{seq: w.seq + 1, ts: ts, node: node, vals: *vals}
	var err error
	w.scratch, err = appendWALRecord(w.scratch[:0], &rec)
	if err != nil {
		return 0, err
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.stuck = fmt.Errorf("tsdb: wal append: %w", err)
		return 0, w.stuck
	}
	w.seq = rec.seq
	w.bytes.Add(int64(len(w.scratch)))
	w.records.Add(1)
	switch w.policy {
	case FsyncAlways:
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncNever:
		if err := w.w.Flush(); err != nil {
			w.stuck = fmt.Errorf("tsdb: wal flush: %w", err)
			return 0, w.stuck
		}
	}
	return rec.seq, nil
}

// lastSeq reports the newest assigned sequence number. Safe without the
// persister's coordination (it takes the wal's own lock).
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// sync flushes the buffer and fsyncs the segment (the batch flusher's
// tick, and the drain on Close).
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stuck != nil {
		return w.stuck
	}
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		w.stuck = fmt.Errorf("tsdb: wal flush: %w", err)
		return w.stuck
	}
	if err := w.f.Sync(); err != nil {
		w.stuck = fmt.Errorf("tsdb: wal fsync: %w", err)
		return w.stuck
	}
	w.fsyncs.Add(1)
	return nil
}

// rotate seals the current segment (flush + fsync + close) and starts a
// fresh one continuing the sequence. Called after a snapshot so the sealed
// segments become eligible for deletion.
func (w *wal) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stuck != nil {
		return w.stuck
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.stuck = fmt.Errorf("tsdb: wal close: %w", err)
		return w.stuck
	}
	path := filepath.Join(w.dir, walSegmentName(w.seq+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		w.stuck = fmt.Errorf("tsdb: open wal segment: %w", err)
		return w.stuck
	}
	w.f = f
	w.w.Reset(f)
	if _, err := w.w.WriteString(walMagic); err != nil {
		w.stuck = fmt.Errorf("tsdb: write wal header: %w", err)
		return w.stuck
	}
	w.bytes.Add(int64(len(walMagic)))
	return nil
}

// close drains and closes the segment. The WAL is unusable afterwards.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stuck != nil {
		// Still release the descriptor; the sticky error is the story.
		_ = w.f.Close()
		return w.stuck
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("tsdb: wal close: %w", cerr)
	}
	w.stuck = ErrClosed
	return err
}
