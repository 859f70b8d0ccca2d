// Package persisttest is a crash-injection harness for the durable tsdb:
// it builds real data directories from recorded workloads, corrupts them
// the way crashes and bad disks do (torn tails at every byte offset, bit
// flips, partial snapshots), and gives tests the reference images to
// assert recovery against.
//
// The harness rests on one observation: with FsyncNever every WAL append
// is written through to the file before Ingest returns, so a directory
// built that way and then abandoned is byte-identical to the directory a
// process crash immediately after the last append would leave. Truncating
// the newest WAL segment at byte offset L therefore reproduces exactly
// the on-disk state of a crash mid-write at L — the same torn-tail matrix
// the PR 4 faultnet harness runs for the cluster layer, but against the
// filesystem instead of the wire.
//
// The correctness oracle is PrefixImages: the store's append path is
// deterministic, so the store recovered from any injected crash must
// render the exact image (every node, channel and resolution through the
// wire JSON encoding) of some prefix of the workload — and the harness
// can say which prefix, because frame sizes are computable from the ops.
package persisttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"highrpm/internal/tsdb"
)

// Op is one recorded Ingest call.
type Op struct {
	Node string
	T    float64
	S    tsdb.Sample
}

// Workload generates n seeded ingest ops across three nodes with
// realistic power levels and a sparse NaN-gapped IPMI channel. The same
// seed always yields the same ops.
func Workload(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	nodes := []string{"node-a", "node-b", "node-c"}
	const base = 1.7e9
	ops := make([]Op, n)
	for i := range ops {
		s := tsdb.Sample{
			PNode:      80 + 40*rng.Float64(),
			PCPU:       30 + 20*rng.Float64(),
			PMEM:       8 + 4*rng.Float64(),
			PNodePrime: 80 + 40*rng.Float64(),
			IPMI:       math.NaN(),
		}
		if i%5 == 0 {
			s.IPMI = s.PNode + rng.Float64()
		}
		ops[i] = Op{Node: nodes[rng.Intn(len(nodes))], T: base + float64(i), S: s}
	}
	return ops
}

// Build creates a durable store in dir, applies ops with a manual
// snapshot after each 1-based count in snapAt, and closes it. Fsync is
// forced to FsyncNever (write-through) and automatic snapshots off, so
// when Build returns the directory holds every WAL byte — the exact state
// a crash after the last append would leave (closing drains nothing that
// was not already in the file).
func Build(dir string, opts tsdb.Options, ops []Op, snapAt ...int) error {
	opts.Dir = dir
	opts.Fsync = tsdb.FsyncNever
	opts.SnapshotEvery = -1
	st, _, err := tsdb.Open(opts)
	if err != nil {
		return err
	}
	marks := append([]int(nil), snapAt...)
	sort.Ints(marks)
	next := 0
	for i, op := range ops {
		if err := st.Ingest(op.Node, op.T, op.S); err != nil {
			return fmt.Errorf("persisttest: op %d: %w", i, err)
		}
		for next < len(marks) && marks[next] == i+1 {
			if err := st.Snapshot(); err != nil {
				return fmt.Errorf("persisttest: snapshot after op %d: %w", i+1, err)
			}
			next++
		}
	}
	return st.Close()
}

// Image renders every series the store serves — each node and the
// aggregate, every channel, every resolution — through the wire JSON
// encoding. Two stores with equal images answer every query identically,
// byte for byte.
func Image(st *tsdb.Store) ([]byte, error) {
	var buf bytes.Buffer
	targets := append([]string{""}, st.Nodes()...)
	for _, node := range targets {
		for _, ch := range tsdb.Channels() {
			for _, res := range tsdb.Resolutions() {
				body, err := st.QuerySeries(node, string(ch), 0, 4e9, int(res))
				if err != nil {
					return nil, fmt.Errorf("persisttest: image %q/%s/%d: %w", node, ch, res, err)
				}
				b, err := json.Marshal(body)
				if err != nil {
					return nil, err
				}
				_, _ = buf.Write(b) // bytes.Buffer never errors
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes(), nil
}

// PrefixImages returns len(ops)+1 reference images: images[k] is the
// image of a store that ingested exactly ops[:k]. Store appends are
// deterministic, so any valid crash recovery must reproduce one of these
// bit for bit. The images are built incrementally on one memory-only
// store (Dir is cleared), one image per prefix.
func PrefixImages(opts tsdb.Options, ops []Op) ([][]byte, error) {
	opts.Dir = ""
	st := tsdb.New(opts)
	defer func() {
		// A memory-only store's Close cannot fail; the error return exists
		// for the durable path.
		_ = st.Close()
	}()
	images := make([][]byte, 0, len(ops)+1)
	img, err := Image(st)
	if err != nil {
		return nil, err
	}
	images = append(images, img)
	for i, op := range ops {
		if err := st.Ingest(op.Node, op.T, op.S); err != nil {
			return nil, fmt.Errorf("persisttest: op %d: %w", i, err)
		}
		if img, err = Image(st); err != nil {
			return nil, err
		}
		images = append(images, img)
	}
	return images, nil
}

// FrameSize returns the on-disk WAL frame size of one op: the 8-byte
// length+CRC prefix plus the payload (seq, timestamp, node length, node,
// five channel values). Tests use it to predict exactly which records a
// truncation at a given byte offset preserves.
func FrameSize(op Op) int {
	return 8 + 8 + 8 + 1 + len(op.Node) + 8*tsdb.NumChannels
}

// WALHeaderSize is the byte length of a segment's magic header.
const WALHeaderSize = 8

// CopyDir replicates src's regular files into a fresh dst.
func CopyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sortedGlob returns dir's files matching pattern, sorted by name. WAL
// segments and snapshots embed fixed-width hex sequence numbers, so name
// order is sequence order.
func sortedGlob(dir, pattern string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// NewestWAL returns the path of dir's newest WAL segment.
func NewestWAL(dir string) (string, error) {
	paths, err := sortedGlob(dir, "wal-*.log")
	if err != nil || len(paths) == 0 {
		return "", fmt.Errorf("persisttest: no wal segments in %s", dir)
	}
	return paths[len(paths)-1], nil
}

// NewestSnapshot returns the path of dir's newest snapshot file.
func NewestSnapshot(dir string) (string, error) {
	paths, err := sortedGlob(dir, "snap-*.snap")
	if err != nil || len(paths) == 0 {
		return "", fmt.Errorf("persisttest: no snapshots in %s", dir)
	}
	return paths[len(paths)-1], nil
}

// Truncate cuts a file to n bytes — the torn-tail injection.
func Truncate(path string, n int) error {
	return os.Truncate(path, int64(n))
}

// FlipBit inverts one bit of a file in place — the bad-disk injection.
func FlipBit(path string, byteOff int, bit uint) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if byteOff < 0 || byteOff >= len(data) {
		return fmt.Errorf("persisttest: flip offset %d outside %d-byte file", byteOff, len(data))
	}
	data[byteOff] ^= 1 << (bit % 8)
	return os.WriteFile(path, data, 0o644)
}
