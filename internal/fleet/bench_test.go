package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
)

// pacedStub is a minimal shard backend — a cluster.Server over a handler
// whose sample handling is serialized and paced: the whole shard processes
// one sample per serviceTime, whatever the connection count. On this
// benchmark's single-CPU runners a real in-process cluster.Service cannot
// demonstrate horizontal scaling — every shard contends for the same core —
// so the ingest benchmark models what sharding actually buys in
// deployment: independent backends whose service time overlaps. The router
// under test is the real one, doing real framing, routing, and pooling
// work.
type pacedStub struct {
	serviceTime time.Duration
	model       []byte
	mu          sync.Mutex // the shard-wide pacing token
}

// startPacedStub starts one paced shard and returns its address.
func startPacedStub(tb testing.TB, serviceTime time.Duration, model []byte) string {
	tb.Helper()
	srv := cluster.NewServer("stub", &pacedStub{serviceTime: serviceTime, model: model}, cluster.ServiceOptions{}, tb.Logf)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func (s *pacedStub) Hello(string) {}

func (s *pacedStub) Batch(rb *cluster.RecordBatch, dst []cluster.Estimate) ([]cluster.Estimate, error) {
	for i := range rb.Samples {
		s.mu.Lock()
		time.Sleep(s.serviceTime)
		s.mu.Unlock()
		dst = append(dst, cluster.Estimate{NodeID: rb.NodeID, Time: rb.Samples[i].Time, PNode: 100, PCPU: 60, PMEM: 25})
	}
	return dst, nil
}

func (s *pacedStub) Query(cluster.QueryRequest, *cluster.SeriesWriter) error {
	return errors.New("unsupported")
}

func (s *pacedStub) Stats() (cluster.Stats, error) { return cluster.Stats{}, nil }

func (s *pacedStub) Model() ([]byte, error) { return s.model, nil }

// BenchmarkRouterIngest measures routed sample throughput against 1, 2,
// and 4 paced stub shards (200µs of serialized service time per sample
// per shard). Throughput should scale with the shard count: that is the
// whole point of the fleet layer — with the ring spreading the 64
// sequentially named nodes over the shards, shard service time overlaps
// instead of queueing.
func BenchmarkRouterIngest(b *testing.B) {
	modelBytes, err := core.Marshal(sharedModel(b))
	if err != nil {
		b.Fatal(err)
	}
	const serviceTime = 200 * time.Microsecond
	const totalNodes = 64
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			top := Topology{}
			for i := 0; i < shards; i++ {
				addr := startPacedStub(b, serviceTime, modelBytes)
				top.Shards = append(top.Shards, Shard{Name: fmt.Sprintf("shard-%d", i), Addr: addr})
			}
			r, err := NewRouter(top, DefaultTopologyOptions())
			if err != nil {
				b.Fatal(err)
			}
			r.Logf = b.Logf
			if err := r.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer r.Close()

			agents := make([]*cluster.Agent, totalNodes)
			for i := range agents {
				// Sequential names, as a real cluster has them: the ring has
				// to spread these, not a hand-balanced set.
				ag, err := cluster.Dial(r.Addr(), fmt.Sprintf("cn%04d", i+1))
				if err != nil {
					b.Fatal(err)
				}
				defer ag.Close()
				agents[i] = ag
			}

			pmc := make([]float64, 8)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := range agents {
				wg.Add(1)
				go func(ag *cluster.Agent) {
					defer wg.Done()
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						if _, err := ag.Send(float64(n), pmc, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}(agents[i])
			}
			wg.Wait()
			b.StopTimer()
		})
	}
}
