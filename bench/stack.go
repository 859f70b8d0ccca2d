package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/core"
	"highrpm/internal/fleet"
	"highrpm/internal/tsdb"
)

const (
	fleetShards      = 3
	fleetReplication = 2
	// shutdownGrace bounds the graceful drain of one service at the end of
	// a run; nothing is in flight by then, so it is never reached.
	shutdownGrace = 5 * time.Second
)

// stack is the system under test, assembled from the shipping
// constructors with shipping defaults: either one in-memory
// cluster.Service (the paper's control-node deployment) or a fleet.Router
// over three durable services with replication 2. The only options set
// are the ones a deployment must choose: the data directories and R.
type stack struct {
	model    *core.HighRPM
	services []*cluster.Service
	dirs     []string // one durable directory per service; nil for direct
	router   *fleet.Router
	addr     string // what agents dial
}

func startDirect(model *core.HighRPM) (*stack, error) {
	svc := cluster.NewService(model)
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &stack{model: model, services: []*cluster.Service{svc}, addr: svc.Addr()}, nil
}

// durableOptions is tsdb.DefaultOptions plus the directory; the zero
// Fsync is FsyncBatch and the zero SnapshotEvery the shipping cadence.
func durableOptions(dir string) tsdb.Options {
	o := tsdb.DefaultOptions()
	o.Dir = dir
	return o
}

// openShard opens (or recovers) one durable backend and starts it
// listening.
func openShard(model *core.HighRPM, dir string) (*cluster.Service, *tsdb.Recovery, error) {
	svc, rec, err := cluster.NewDurableService(model, cluster.DefaultServiceOptions(), durableOptions(dir))
	if err != nil {
		return nil, nil, err
	}
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		_ = svc.Close()
		return nil, nil, err
	}
	return svc, rec, nil
}

// startFleet starts shards backends and a router over them with the
// given replication factor. The backends are durable, one directory each
// under base; with base empty they are in-memory (the traced replay's
// private fleets).
func startFleet(model *core.HighRPM, base string, shards, replication int) (*stack, error) {
	st := &stack{model: model}
	top := fleet.Topology{}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		var svc *cluster.Service
		var err error
		if base == "" {
			svc = cluster.NewService(model)
			err = svc.Listen("127.0.0.1:0")
		} else {
			dir := filepath.Join(base, name)
			svc, _, err = openShard(model, dir)
			st.dirs = append(st.dirs, dir)
		}
		if err != nil {
			_ = st.stop()
			return nil, err
		}
		st.services = append(st.services, svc)
		top.Shards = append(top.Shards, fleet.Shard{Name: name, Addr: svc.Addr()})
	}
	opts := fleet.DefaultTopologyOptions()
	opts.Replication = replication
	router, err := fleet.NewRouter(top, opts)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	if err := router.Listen("127.0.0.1:0"); err != nil {
		_ = st.stop()
		return nil, err
	}
	st.router, st.addr = router, router.Addr()
	return st, nil
}

// stop closes the router, then drains every service; the durable stores
// flush and fsync their WAL in Shutdown.
func (s *stack) stop() error {
	var first error
	if s.router != nil {
		first = s.router.Close()
		s.router = nil
	}
	for _, svc := range s.services {
		if err := shutdown(svc); err != nil && first == nil {
			first = err
		}
	}
	s.services = nil
	return first
}

// shutdown drains one service. It first gives the service a moment to
// notice the connections its peers already closed: Shutdown reaps the
// ones it still believes open through an expired read deadline and logs
// each as a timeout, which would bury real errors in noise.
func shutdown(svc *cluster.Service) error {
	for i := 0; i < 100 && svc.Stats().Conns > 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	return svc.Shutdown(shutdownGrace)
}

// fullest returns the backend whose store holds the most nodes. With
// sequential node names the ring makes one shard primary for every node
// (and leaves another empty), so that one holds them all.
func (s *stack) fullest() *cluster.Service {
	best := s.services[0]
	for _, svc := range s.services[1:] {
		if len(svc.Store().Nodes()) > len(best.Store().Nodes()) {
			best = svc
		}
	}
	return best
}

// diskBytes sums the regular files under the stack's data directories.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	for _, dir := range s.dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// scratchDir creates a fresh directory for durable state under
// .bench_data in the working directory — the benchmark writes nowhere
// else. The caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_data", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_data", "run-")
}

// removeAll deletes a scratch directory; a leftover is reported, not
// fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: remove %s: %v\n", dir, err)
	}
}
