package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// FuzzWALRecord drives the WAL segment scanner with arbitrary bytes. Two
// properties must hold for every input: the scan classifies cleanly
// (torn and damage are mutually exclusive, applied matches the callback
// count), and whatever it decoded re-encodes to a segment that scans back
// to the identical records — the decoder never hands out a record the
// encoder could not have produced.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte(walMagic))
	f.Add([]byte("XXXXWAL9 not a segment"))
	one := walRecord{seq: 1, ts: 1_700_000_000_000, node: "node-a",
		vals: [NumChannels]float64{101.5, 55.25, 9.75, 102, math.NaN()}}
	valid, err := appendWALRecord([]byte(walMagic), &one)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	two := walRecord{seq: 2, ts: 1_700_000_001_000, node: "node-b",
		vals: [NumChannels]float64{0, math.Inf(1), -0.0, 1e-300, 2}}
	valid2, err := appendWALRecord(valid, &two)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid2)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []walRecord
		applied, torn, damage := scanWALBytes(data, func(r *walRecord) bool {
			recs = append(recs, *r)
			return true
		})
		if applied != len(recs) {
			t.Fatalf("applied %d but callback saw %d", applied, len(recs))
		}
		if torn && damage != "" {
			t.Fatalf("scan reported both torn and damage %q", damage)
		}
		out := []byte(walMagic)
		for i := range recs {
			if out, err = appendWALRecord(out, &recs[i]); err != nil {
				t.Fatalf("decoded record %d does not re-encode: %v", i, err)
			}
		}
		var again []walRecord
		applied2, torn2, damage2 := scanWALBytes(out, func(r *walRecord) bool {
			again = append(again, *r)
			return true
		})
		if applied2 != len(recs) || torn2 || damage2 != "" {
			t.Fatalf("re-encoded segment scans to %d records (torn=%v damage=%q), want %d clean", applied2, torn2, damage2, len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.seq != b.seq || a.ts != b.ts || a.node != b.node {
				t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, a, b)
			}
			for c := range a.vals {
				if math.Float64bits(a.vals[c]) != math.Float64bits(b.vals[c]) {
					t.Fatalf("record %d channel %d: %x vs %x", i, c, math.Float64bits(a.vals[c]), math.Float64bits(b.vals[c]))
				}
			}
		}
	})
}

// FuzzSnapshotFile drives the snapshot loader with arbitrary bytes: it
// must reject or accept without panicking, and anything it accepts must
// install into a store whose every series then queries without error —
// a snapshot that validates can never poison the read path.
func FuzzSnapshotFile(f *testing.F) {
	opts := Options{BlockPoints: 16}.withDefaults()
	// Seed with a real snapshot of a small populated store.
	func() {
		dir := f.TempDir()
		o := opts
		o.Dir = dir
		o.Fsync = FsyncNever
		o.SnapshotEvery = -1
		st, _, err := Open(o)
		if err != nil {
			f.Fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				f.Error(err)
			}
		}()
		fillSeeded(f, st, 11, 50)
		file := snapshotFile(f, st)
		f.Add(file)
		f.Add(file[:len(file)/2])
	}()
	f.Add([]byte(snapMagic))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data, opts)
		if err != nil {
			return
		}
		st := New(opts)
		st.installSnapshot(snap)
		for _, node := range st.Nodes() {
			for _, ch := range Channels() {
				for _, res := range Resolutions() {
					if _, qerr := st.Query(node, ch, -4e9, 4e9, res); qerr != nil {
						t.Fatalf("validated snapshot fails %s/%s/%d: %v", node, ch, res, qerr)
					}
				}
			}
		}
		// An accepted snapshot must also re-validate: decode is a pure
		// function of the bytes.
		if _, err := decodeSnapshot(bytes.Clone(data), opts); err != nil {
			t.Fatalf("accepted snapshot fails a second decode: %v", err)
		}
	})
}

// fuzzProgram is the byte grammar FuzzCachedQueryMatchesUncached runs:
// a sequence of ops, each an opcode byte followed by its arguments (a
// missing byte reads as 0).
//
//	opIngest node gap kind val   gap×125 ms after the previous sample;
//	                             kind picks raw bits (val then 8 bytes),
//	                             a NaN payload, ±Inf or 80+val/8
//	opQuery  node ch res back span   node 2 is the aggregate; the window
//	                                 starts back s before the newest
//	                                 sample and spans span s (255: all)
//	opLatest node ch
type fuzzProgram struct {
	data []byte
	pos  int
}

const (
	opIngest = iota
	opQuery
	opLatest
	numOps
)

func (p *fuzzProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

// value decodes one ingested value; every kind keeps its exact bits
// through the store.
func (p *fuzzProgram) value() float64 {
	kind, v := p.next()%4, p.next()
	switch kind {
	case 0:
		bits := uint64(v)
		for i := 0; i < 7; i++ {
			bits = bits<<8 | uint64(p.next())
		}
		return math.Float64frombits(bits)
	case 1:
		return math.Float64frombits(0x7FF8_0000_0000_0000 | uint64(v)<<20 | uint64(v))
	case 2:
		return math.Inf(1 - 2*int(v&1))
	}
	return 80 + float64(v)/8
}

// FuzzCachedQueryMatchesUncached is the decoded-block cache's
// differential law: a store whose cache is tiny (CachePoints 16, so open
// entries are evicted and rebuilt mid-block) and a store with no cache at
// all, fed the same samples, give byte-identical answers to every
// interleaved node query, aggregate and Latest, at all three resolutions;
// the runs a node query's walk hands a sink, the points Query collects and
// the QuerySeries body agree bit for bit across both stores, which count
// the same Stats.Queries and Stats.PointsReturned.
// Blocks of 8 points and small retention budgets make seals and retention
// evictions land between reads. Timestamps never decrease, as every
// writer's do; the gaps between them are irregular.
func FuzzCachedQueryMatchesUncached(f *testing.F) {
	ingest := func(node, gap, v byte) []byte { return []byte{opIngest, node, gap, 3, v} }
	query := func(node, ch, res, back, span byte) []byte { return []byte{opQuery, node, ch, res, back, span} }
	var seal []byte // a seal that lands between two queries
	for i := byte(0); i < 7; i++ {
		seal = append(seal, ingest(0, 8, i)...)
	}
	seal = append(seal, query(0, 0, 0, 10, 255)...)
	seal = append(seal, ingest(0, 8, 7)...)
	seal = append(seal, ingest(0, 8, 8)...)
	seal = append(seal, query(0, 0, 0, 10, 255)...)
	seal = append(seal, opLatest, 0, 0)
	f.Add(seal)
	var mixed []byte // NaN payloads, ±Inf, raw bits, both nodes, rollups
	for i := byte(0); i < 60; i++ {
		mixed = append(mixed, opIngest, i&1, i*37, i, i*11, 0x40, 0x59, i, 3, 1, 4, 1, 5)
		mixed = append(mixed, query(i%3, i, i, i, i*3)...)
		mixed = append(mixed, opLatest, i, i)
	}
	f.Add(mixed)
	f.Add([]byte{opQuery, 0, 0, 0, 0, 255, opLatest, 1, 4})

	opts := Options{BlockPoints: 8, RetainRaw: 40, Retain10s: 20, Retain60s: 16}
	nodes := [...]string{"a", "b", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		cachedOpts, plainOpts := opts, opts
		cachedOpts.CachePoints, plainOpts.CachePoints = 16, -1
		cached, plain := New(cachedOpts), New(plainOpts)
		defer cached.Close()
		defer plain.Close()
		same := func(what string, a, b any, aErr, bErr error) {
			t.Helper()
			if (aErr == nil) != (bErr == nil) || (aErr != nil && aErr.Error() != bErr.Error()) {
				t.Fatalf("%s: cached err %v, uncached err %v", what, aErr, bErr)
			}
			aj, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s: cached and uncached answers differ\ncached   %s\nuncached %s", what, aj, bj)
			}
		}
		p := fuzzProgram{data: data}
		var nowMs int64
		for ops := 0; p.pos < len(p.data) && ops < 400; ops++ {
			switch p.next() % numOps {
			case opIngest:
				node := nodes[p.next()&1]
				nowMs += int64(p.next()) * 125
				v := p.value()
				s := Sample{PNode: v, PCPU: v / 2, PMEM: -v, PNodePrime: v + 1, IPMI: math.NaN()}
				if nowMs%3 == 0 {
					s.IPMI = v
				}
				for _, st := range []*Store{cached, plain} {
					if err := st.Ingest(node, float64(nowMs)/1000, s); err != nil {
						t.Fatal(err)
					}
				}
			case opQuery:
				node, ch := nodes[p.next()%3], Channels()[int(p.next())%NumChannels]
				res := Resolutions()[p.next()%3]
				from := float64(nowMs)/1000 - float64(p.next())
				to := math.Inf(1)
				if span := p.next(); span != 255 {
					to = from + float64(span)
				}
				what := fmt.Sprintf("query %q/%s/%d [%v, %v]", node, ch, res, from, to)
				a, aErr := cached.QuerySeries(node, string(ch), from, to, int(res))
				b, bErr := plain.QuerySeries(node, string(ch), from, to, int(res))
				same(what, a, b, aErr, bErr)
				if node == "" || aErr != nil {
					continue
				}
				// What each store's walk hands a sink — runs for raw — and
				// what its Query collects are one series, bit for bit.
				var sa, sb recordingSink
				aErr = cached.WalkSeries(node, string(ch), from, to, int(res), &sa)
				bErr = plain.WalkSeries(node, string(ch), from, to, int(res), &sb)
				pa, qaErr := cached.Query(node, ch, from, to, res)
				pb, qbErr := plain.Query(node, ch, from, to, res)
				if aErr != nil || bErr != nil || qaErr != nil || qbErr != nil {
					t.Fatalf("%s: walks %v / %v, queries %v / %v", what, aErr, bErr, qaErr, qbErr)
				}
				for _, c := range []struct {
					name string
					a, b []Point
				}{{"cached walk", sa.pts, pa}, {"uncached walk", sb.pts, pa}, {"uncached query", pb, pa}} {
					if err := samePointBits(c.a, c.b); err != nil {
						t.Fatalf("%s: %s against the cached query: %v", what, c.name, err)
					}
				}
			case opLatest:
				node, ch := nodes[p.next()&1], Channels()[int(p.next())%NumChannels]
				a, aErr := cached.Latest(node, ch)
				b, bErr := plain.Latest(node, ch)
				same(fmt.Sprintf("latest %q/%s", node, ch), a.Wire(), b.Wire(), aErr, bErr)
				if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
					t.Fatalf("latest %q/%s: value bits %x vs %x", node, ch, math.Float64bits(a.Value), math.Float64bits(b.Value))
				}
			}
		}
		if a, b := cached.Stats(), plain.Stats(); a.Queries != b.Queries || a.PointsReturned != b.PointsReturned {
			t.Fatalf("cached store counted %d queries / %d points, uncached %d / %d", a.Queries, a.PointsReturned, b.Queries, b.PointsReturned)
		}
		// Finally every series, whole, raw values compared bit for bit.
		for _, node := range nodes[:2] {
			for _, ch := range Channels() {
				for _, res := range Resolutions() {
					a, aErr := cached.Query(node, ch, math.Inf(-1), math.Inf(1), res)
					b, bErr := plain.Query(node, ch, math.Inf(-1), math.Inf(1), res)
					same(fmt.Sprintf("final %q/%s/%d", node, ch, res), ToSeriesPoints(a), ToSeriesPoints(b), aErr, bErr)
					for i := range a {
						if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
							t.Fatalf("final %q/%s/%d point %d: value bits %x vs %x", node, ch, res, i, math.Float64bits(a[i].Value), math.Float64bits(b[i].Value))
						}
					}
				}
			}
		}
	})
}
