// Package highrpm's benchmark harness: BenchmarkExperiment regenerates each
// table and figure of the paper's motivation and evaluation sections at
// bench scale, one sub-benchmark per registered experiment; the Store
// benchmarks measure the tsdb. For paper-scale runs use
//
//	go run ./cmd/highrpm-bench -scale full
package highrpm_test

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"highrpm"
	"highrpm/internal/experiments"
)

// BenchmarkExperiment runs every experiment `highrpm-bench -list` prints, on
// a fresh workspace and a new seed per iteration, and renders its tables.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.DefaultOrder() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.NewConfig(experiments.ScaleBench)
				cfg.Seed = int64(i + 1)
				tables, err := experiments.Run(experiments.NewWorkspace(cfg), id)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					t.Render(io.Discard)
				}
			}
		})
	}
}

// storeWorkload deterministically generates the synthetic monitor workload
// for the tsdb benchmarks: phase-programmed power plateaus (like the
// workload suite's phases) quantised to the sensors' 0.1 W resolution,
// with an IPMI reading every tenth second and NaN gaps in between.
func storeWorkload(r *rand.Rand, i int, prev *highrpm.StorePoint) (s struct {
	PNode, PCPU, PMEM, PNodePrime, IPMI float64
}) {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	base := 70 + 15*float64((i/30)%3)
	node := prev.Value
	if i == 0 || i%30 == 0 || r.Float64() < 0.4 {
		node = quant(base + 2*r.NormFloat64())
	}
	prev.Value = node
	s.PNode = node
	s.PCPU = quant(0.65 * node)
	s.PMEM = quant(0.25 * node)
	s.PNodePrime = quant(node + 0.3)
	s.IPMI = math.NaN()
	if i%10 == 0 {
		s.IPMI = node
	}
	return s
}

// BenchmarkStoreIngest measures the tsdb ingest path (five channels + two
// rollup resolutions per call) and reports the compressed bytes per stored
// point against the 16 B (8 B timestamp + 8 B float64) uncompressed
// baseline.
func BenchmarkStoreIngest(b *testing.B) {
	store := highrpm.NewStore(highrpm.DefaultStoreOptions())
	r := rand.New(rand.NewSource(1))
	var prev highrpm.StorePoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := storeWorkload(r, i, &prev)
		err := store.Ingest("node-00", float64(i), highrpm.StoreSample{
			PNode: w.PNode, PCPU: w.PCPU, PMEM: w.PMEM, PNodePrime: w.PNodePrime, IPMI: w.IPMI,
		})
		if err != nil {
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
	opts := highrpm.DefaultStoreOptions()
	opts.Dir = b.TempDir()
	opts.Fsync = highrpm.FsyncBatch
	opts.SnapshotEvery = -1
	store, _, err := highrpm.OpenStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	r := rand.New(rand.NewSource(1))
	var prev highrpm.StorePoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := storeWorkload(r, i, &prev)
		err := store.Ingest("node-00", float64(i), highrpm.StoreSample{
			PNode: w.PNode, PCPU: w.PCPU, PMEM: w.PMEM, PNodePrime: w.PNodePrime, IPMI: w.IPMI,
		})
		if err != nil {
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
	store := highrpm.NewStore(highrpm.DefaultStoreOptions())
	r := rand.New(rand.NewSource(1))
	var prev highrpm.StorePoint
	const hour = 3600
	for i := 0; i < hour; i++ {
		w := storeWorkload(r, i, &prev)
		if err := store.Ingest("node-00", float64(i), highrpm.StoreSample{
			PNode: w.PNode, PCPU: w.PCPU, PMEM: w.PMEM, PNodePrime: w.PNodePrime, IPMI: w.IPMI,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		from := float64((i * 60) % (hour - 60))
		raw, err := store.Query("node-00", highrpm.ChannelPNode, from, from+59, highrpm.ResolutionRaw)
		if err != nil {
			b.Fatal(err)
		}
		roll, err := store.Query("node-00", highrpm.ChannelPCPU, from, from+59, highrpm.Resolution10s)
		if err != nil {
			b.Fatal(err)
		}
		pts += len(raw) + len(roll)
	}
	b.ReportMetric(float64(pts)/float64(b.N), "points/op")
}
