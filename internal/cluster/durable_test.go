package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/obs"
	"highrpm/internal/platform"
	"highrpm/internal/tsdb"
	"highrpm/internal/workload"
)

// durableStoreOpts sizes a small durable store rooted at dir. FsyncAlways
// keeps the test deterministic (no background flusher timing) and
// exercises the strictest policy on the real service path.
func durableStoreOpts(dir string) tsdb.Options {
	o := tsdb.DefaultOptions()
	o.BlockPoints = 16
	o.Dir = dir
	o.Fsync = tsdb.FsyncAlways
	o.SnapshotEvery = -1
	return o
}

// driveSamples streams n seconds of real telemetry into svc as node-a,
// with an IM reading every tenth sample.
func driveSamples(t *testing.T, svc *Service, n int) {
	t.Helper()
	agent, err := Dial(svc.Addr(), "node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	node, err := platform.NewNode(platform.ARMConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(b)
	for i := 0; i < n; i++ {
		s := node.Step(1)
		var measured *float64
		if i%10 == 0 {
			v := s.PNode
			measured = &v
		}
		if _, err := agent.Send(s.Time, s.Counters.Slice(), measured); err != nil {
			t.Fatal(err)
		}
	}
}

// historyImage renders every channel of node-a's history at every
// resolution through the same QuerySeries path agents use.
func historyImage(t *testing.T, st *tsdb.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ch := range tsdb.Channels() {
		for _, res := range tsdb.Resolutions() {
			body, err := st.QuerySeries("node-a", string(ch), 0, 4e9, int(res))
			if err != nil {
				t.Fatalf("query %s/%d: %v", ch, res, err)
			}
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// TestDurableServiceRecovery restarts the service on a durable store: a
// graceful Shutdown drains the WAL, and the next NewDurableService on
// the same directory must replay every recorded estimate and answer the
// exact same history queries.
func TestDurableServiceRecovery(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	const n = 25

	svc, rec, err := NewDurableService(sharedModel(t), DefaultServiceOptions(), durableStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 || rec.SnapshotPath != "" {
		t.Fatalf("fresh directory recovered state: %+v", rec)
	}
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	driveSamples(t, svc, n)
	before := historyImage(t, svc.Store())
	if err := svc.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	svc2, rec2, err := NewDurableService(sharedModel(t), DefaultServiceOptions(), durableStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := svc2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if rec2.LastSeq != n || rec2.Replayed != n {
		t.Fatalf("recovery = %+v, want %d records replayed", rec2, n)
	}
	if rec2.TornTail || len(rec2.Damage) != 0 || len(rec2.CorruptSnapshots) != 0 {
		t.Fatalf("graceful shutdown left a dirty log: %+v", rec2)
	}
	after := historyImage(t, svc2.Store())
	if !bytes.Equal(before, after) {
		t.Fatal("recovered history differs from the pre-shutdown image")
	}
}

// TestDurableMetricsExposition checks the WAL/snapshot gauges reach the
// Prometheus exposition with live values from the durable store.
func TestDurableMetricsExposition(t *testing.T) {
	leaktest.Check(t)
	opts := durableStoreOpts(t.TempDir())
	svc, _, err := NewDurableService(sharedModel(t), DefaultServiceOptions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	driveSamples(t, svc, 10)
	if err := svc.Store().Snapshot(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		"highrpm_store_wal_records_total 10",
		"highrpm_store_wal_replayed_records 0",
		"highrpm_store_snapshots_total 1",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, name := range []string{
		"highrpm_store_wal_bytes_total",
		"highrpm_store_wal_fsyncs_total",
		"highrpm_store_snapshot_age_seconds",
	} {
		if !strings.Contains(expo, name+" ") {
			t.Errorf("exposition missing metric %s", name)
		}
	}
}

// TestServiceRefusesInvalidNodeIDs: the Server checks a node ID before any
// handler sees it, so an in-memory and a durable service answer alike. An
// empty ID (an empty QueryRequest.NodeID reads the aggregate, so its
// history could never be read back) and one over tsdb.MaxNodeIDLen bytes
// (a WAL record cannot carry it) are refused with a *ServiceError, singly
// and batched, and register no node even through a Hello; an ID of
// exactly the limit is stored and read back.
func TestServiceRefusesInvalidNodeIDs(t *testing.T) {
	leaktest.Check(t)
	durable, _, err := NewDurableService(sharedModel(t), DefaultServiceOptions(), durableStoreOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	durable.Logf = t.Logf
	if err := durable.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	longest := strings.Repeat("n", tsdb.MaxNodeIDLen)
	for _, tc := range []struct {
		name string
		svc  *Service
	}{{"memory", startService(t)}, {"durable", durable}} {
		svc := tc.svc
		t.Run(tc.name, func(t *testing.T) {
			for _, bad := range []string{"", longest + "x"} {
				ag, err := Dial(svc.Addr(), bad)
				if err != nil {
					t.Fatalf("a Hello with a %d-byte ID must still negotiate: %v", len(bad), err)
				}
				var se *ServiceError
				if _, err := ag.Send(0, benchPMC(), nil); !errors.As(err, &se) {
					t.Fatalf("%d-byte node ID: sample answered with %v, want a *ServiceError", len(bad), err)
				}
				ag.SetBatching(BatchOptions{MaxSamples: 2})
				for i := 0; i < 2 && err == nil; i++ {
					_, err = ag.Record(float64(i), benchPMC(), nil)
				}
				if !errors.As(err, &se) {
					t.Fatalf("%d-byte node ID: batch answered with %v, want a *ServiceError", len(bad), err)
				}
				ag.Close()
			}
			if st := svc.Stats(); st.Nodes != 0 || st.Samples != 0 || st.Store.Nodes != 0 {
				t.Fatalf("after refusing every sample: %d nodes, %d samples, %d stored nodes", st.Nodes, st.Samples, st.Store.Nodes)
			}
			ag, err := Dial(svc.Addr(), longest)
			if err != nil {
				t.Fatal(err)
			}
			defer ag.Close()
			v := 80.0
			est, err := ag.Send(7, benchPMC(), &v)
			if err != nil {
				t.Fatalf("%d-byte node ID refused: %v", len(longest), err)
			}
			body, err := ag.Query(QueryRequest{NodeID: longest, Channel: "p_node", From: 0, To: 10, ResolutionS: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(body.Points) != 1 || float64(body.Points[0].Value) != est.PNode {
				t.Fatalf("%d-byte node ID reads back %+v, want the one estimate %v", len(longest), body.Points, est.PNode)
			}
			if st := svc.Stats(); st.Nodes != 1 || st.Store.Nodes != 1 {
				t.Fatalf("after one valid sample: %d nodes, %d stored nodes, want 1 and 1", st.Nodes, st.Store.Nodes)
			}
		})
	}
}
