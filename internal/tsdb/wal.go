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
// All integers are big-endian, matching the cluster wire framing, and a
// payload is read through internal/bin's Reader, as the wire and snapshots
// are. Sequence
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
	"sync"
	"sync/atomic"

	"highrpm/internal/bin"
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
// the extended slice. The payload's fields go in the order decodeWALRecord
// reads them; the frame's length and CRC are filled in behind them.
func appendWALRecord(dst []byte, rec *walRecord) ([]byte, error) {
	if len(rec.node) > MaxNodeIDLen {
		return dst, fmt.Errorf("tsdb: node ID %q exceeds %d bytes", rec.node, MaxNodeIDLen)
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length, CRC
	dst = binary.BigEndian.AppendUint64(dst, rec.seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.ts))
	dst = append(append(dst, byte(len(rec.node))), rec.node...)
	for _, v := range rec.vals {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	p := dst[base+8:]
	binary.BigEndian.PutUint32(dst[base:], uint32(len(p)))
	binary.BigEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(p))
	return dst, nil
}

// decodeWALRecord parses one payload. It must be exactly as long as its
// node length says — trailing garbage is corruption, not slack.
func decodeWALRecord(p []byte, rec *walRecord) error {
	r := bin.NewReader(p)
	rec.seq = r.U64()
	rec.ts = r.I64()
	node := r.Bytes(int(r.U8()))
	for i := range rec.vals {
		rec.vals[i] = r.F64()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("tsdb: wal record %w", err)
	}
	rec.node = string(node)
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

// openWALSegment opens the write side of the log on a fresh segment whose
// first record will carry lastSeq+1.
func openWALSegment(dir string, lastSeq uint64, policy FsyncPolicy) (*wal, error) {
	w := &wal{dir: dir, policy: policy, w: bufio.NewWriterSize(nil, 1<<16), seq: lastSeq}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment starts the segment whose first record will carry w.seq+1 and
// writes its header. An existing file of the same name is truncated — that
// only happens when a previous Open crashed before appending anything, so
// its contents are at most a bare header.
func (w *wal) openSegment() error {
	f, err := os.OpenFile(filepath.Join(w.dir, seqName(walPrefix, w.seq+1, walSuffix)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: open wal segment: %w", err)
	}
	w.f = f
	w.w.Reset(f)
	if _, err := w.w.WriteString(walMagic); err != nil {
		_ = f.Close()
		return fmt.Errorf("tsdb: write wal header: %w", err)
	}
	w.bytes.Add(int64(len(walMagic)))
	return nil
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
	if err := w.openSegment(); err != nil {
		w.stuck = err
	}
	return w.stuck
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
