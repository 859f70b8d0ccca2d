package fleet

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"highrpm/internal/cluster"
	"highrpm/internal/leaktest"
	"highrpm/internal/obs"
)

func scrape(t *testing.T, c *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestFleetObsScrape registers a live router onto an observability
// endpoint and scrapes it over HTTP: the per-shard health gauges, the
// routing counters, and the scatter-gather histogram must all be present,
// and /readyz must reflect the router's health callback.
func TestFleetObsScrape(t *testing.T) {
	leaktest.Check(t)
	opts := DefaultTopologyOptions()
	opts.Replication = 2 // so the replication and relay counters move
	r, _ := startFleet(t, 2, opts)

	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	osrv := obs.NewServer(reg, obs.DefaultServerOptions())
	osrv.SetHealth(r.Health)
	if err := osrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := osrv.Shutdown(2 * time.Second); err != nil {
			t.Errorf("obs shutdown: %v", err)
		}
	})
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}

	// Route some traffic so the counters have something to mirror, and run
	// one scatter-gather so the histogram records an observation.
	nodes := balancedNodes(t, r, 1)
	const seconds = 5
	for ni, node := range nodes {
		ag, err := cluster.Dial(r.Addr(), node)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range genSamples(t, int64(700+ni), seconds) {
			if _, err := ag.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
				t.Fatal(err)
			}
		}
		// One binary agent also reads its own history back: a single-node
		// query the router relays without decoding.
		if ni == 0 {
			if _, err := ag.Query(cluster.QueryRequest{NodeID: node, Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ag.Close()
	}
	// A JSON straggler: pinned to the old codec, its two samples must show
	// up under codec="json" on the front hop.
	js, err := cluster.DialCodec(r.Addr(), "obs-straggler", cluster.CodecJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	for _, smp := range genSamples(t, 799, 2) {
		if _, err := js.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
			t.Fatal(err)
		}
	}
	// The aggregate is read by a binary reader that registers no node.
	qa, err := cluster.Dial(r.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer qa.Close()
	if _, err := qa.Query(cluster.QueryRequest{Channel: "p_node", From: 0, To: seconds - 1, ResolutionS: 1}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + osrv.Addr()
	code, out := scrape(t, client, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`highrpm_fleet_shard_up{shard="shard-0"} 1`,
		`highrpm_fleet_shard_up{shard="shard-1"} 1`,
		`highrpm_fleet_shard_agents{shard="shard-0"} `,
		`highrpm_fleet_shard_degraded{shard="shard-0"} 0`,
		`highrpm_fleet_shard_pending{shard="shard-0"} 0`,
		"highrpm_fleet_nodes 3",
		"highrpm_fleet_connections ",
		"highrpm_fleet_connections_peak ",
		// Two binary agents: one JSON Hello each, then five binary samples
		// each and one binary query; the reader a JSON Hello and the
		// aggregate. The straggler: a JSON Hello and two JSON samples.
		"highrpm_fleet_binary_connections_total 3",
		`highrpm_fleet_frames_total{codec="binary"} 12`,
		`highrpm_fleet_frames_total{codec="json"} 6`,
		"highrpm_fleet_rejected_total 0",
		"highrpm_fleet_timed_out_total 0",
		"highrpm_fleet_routed_total 12",
		// Every sample reached its follower carrying the primary's estimate,
		// the one per node with an IM reading included.
		"highrpm_fleet_replicated_total 12",
		"highrpm_fleet_relayed_total 12",
		"highrpm_fleet_failovers_total 0",
		"highrpm_fleet_route_errors_total 0",
		"highrpm_fleet_scatter_gathers_total 1",
		"highrpm_fleet_node_queries_total 1",
		"highrpm_fleet_scatter_seconds_count 1",
		"highrpm_fleet_scatter_seconds_sum ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	code, body := scrape(t, client, base+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz status %d: %s", code, body)
	}
	if !strings.Contains(body, `"status"`) {
		t.Fatalf("/readyz body: %s", body)
	}
	if h := r.Health(); !h.Ready || h.Degraded {
		t.Fatalf("health with both shards up: %+v", h)
	}
}

// TestFleetHealthTransitions walks the router health state machine:
// listening with live shards is ready, a closed router is not.
func TestFleetHealthTransitions(t *testing.T) {
	leaktest.Check(t)
	top := Topology{Shards: []Shard{{Name: "a", Addr: "127.0.0.1:1"}}}
	r, err := NewRouter(top, DefaultTopologyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Health(); h.Ready {
		t.Fatalf("unlistened router reports ready: %+v", h)
	}
	live, _ := startFleet(t, 2, DefaultTopologyOptions())
	if h := live.Health(); !h.Ready {
		t.Fatalf("live router not ready: %+v", h)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if h := live.Health(); h.Ready {
		t.Fatalf("closed router reports ready: %+v", h)
	}
}
