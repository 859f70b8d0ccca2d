package tsdb

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"highrpm/internal/leaktest"
)

// TestConcurrentIngestAndQuery drives the locking design the store exists
// for: N goroutines ingesting into distinct nodes (per-shard mutexes, no
// global lock on the ingest path) while M goroutines run raw queries,
// rollup queries, aggregates and stats over the same store. Run under
// `go test -race ./internal/tsdb` (wired into scripts/verify.sh).
func TestConcurrentIngestAndQuery(t *testing.T) {
	leaktest.Check(t)
	const (
		writers = 8
		readers = 4
		seconds = 400
	)
	st := New(Options{BlockPoints: 64, RetainRaw: 300, Retain10s: 100, Retain60s: 100})
	errc := make(chan error, writers+readers)

	var wWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wWg.Add(1)
		go func(w int) {
			defer wWg.Done()
			node := fmt.Sprintf("node-%02d", w)
			for i := 0; i < seconds; i++ {
				p := 80 + float64((i+w)%25)
				ipmi := math.NaN()
				if i%10 == 0 {
					ipmi = p
				}
				if err := st.Ingest(node, float64(i), Sample{
					PNode: p, PCPU: 0.7 * p, PMEM: 0.3 * p, PNodePrime: p, IPMI: ipmi,
				}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var rWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rWg.Add(1)
		go func(r int) {
			defer rWg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				node := fmt.Sprintf("node-%02d", (i+r)%writers)
				ch := channelOrder[i%NumChannels]
				res := Resolutions()[i%3]
				pts, err := st.Query(node, ch, 0, seconds, res)
				if err != nil {
					// Racing ahead of a writer's first sample is fine.
					continue
				}
				for j := 1; j < len(pts); j++ {
					if pts[j].Time <= pts[j-1].Time {
						errc <- fmt.Errorf("unordered points from %s/%s", node, ch)
						return
					}
				}
				if _, err := st.Aggregate(ChanPNode, 0, seconds, TenSeconds); err != nil {
					errc <- err
					return
				}
				_ = st.Stats()
			}
		}(r)
	}

	wWg.Wait()
	close(done)
	rWg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every shard must answer a consistent final query.
	for w := 0; w < writers; w++ {
		node := fmt.Sprintf("node-%02d", w)
		pts, err := st.Query(node, ChanPNode, 0, seconds, Raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) < 300 {
			t.Fatalf("%s retained %d points, want ≥ 300", node, len(pts))
		}
	}
}

// TestConcurrentReadersOfOpenBlock: readers of one node extend the open
// block's cache entry in place while a writer appends to that block, so
// walk and Latest must hold the shard lock exclusively. Under -race this
// fails the moment either reads under a shared lock; without -race every
// raw point read must still carry the value ingested with it.
func TestConcurrentReadersOfOpenBlock(t *testing.T) {
	leaktest.Check(t)
	const (
		readers = 4
		seconds = 600
	)
	st := New(Options{BlockPoints: 256, RetainRaw: 10000})
	defer st.Close()
	if err := st.Ingest("n", 0, Sample{PNode: 0, IPMI: math.NaN()}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				pts, err := st.Query("n", ChanPNode, float64(i%50), seconds, Resolutions()[(i+r)%3])
				if err == nil && (i+r)%3 == 0 {
					for j, p := range pts {
						if p.Value != p.Time {
							err = fmt.Errorf("point %d of a raw read: t=%v v=%v", j, p.Time, p.Value)
							break
						}
					}
				}
				if err == nil {
					var p Point
					if p, err = st.Latest("n", ChanPNode); err == nil && p.Value != p.Time {
						err = fmt.Errorf("Latest: t=%v v=%v", p.Time, p.Value)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	for i := 1; i < seconds; i++ {
		if err := st.Ingest("n", float64(i), Sample{PNode: float64(i), IPMI: math.NaN()}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
