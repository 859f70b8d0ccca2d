package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/obs"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// startObsServer attaches an observability endpoint to svc and returns it
// with an HTTP client whose idle pool is flushed before the leak check.
func startObsServer(t *testing.T, svc *Service, reg *obs.Registry) (*obs.Server, *http.Client) {
	t.Helper()
	srv := obs.NewServer(reg, obs.DefaultServerOptions())
	srv.SetStore(svc.Store())
	srv.SetHealth(svc.Health)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Errorf("obs shutdown: %v", err)
		}
	})
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return srv, &http.Client{Transport: tr}
}

func scrape(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestObsEndToEndScrape drives real telemetry through a live service and
// scrapes the attached observability endpoint over HTTP: the per-node
// power gauges, the service/store counters, and the monitoring-overhead
// self-metering must all be present, and the JSON series endpoint must
// return byte-for-byte the same encoding as the TCP query path.
func TestObsEndToEndScrape(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	osrv, client := startObsServer(t, svc, reg)

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
	const ticks = 20
	for i := 0; i < ticks; i++ {
		s := node.Step(1)
		var measured *float64
		if i%10 == 0 {
			v := s.PNode
			measured = &v
		}
		// The last five arrive the way a router forwards them to a follower,
		// another replica's estimate attached: counted as samples, stored,
		// metered — and counted as relayed.
		var rel *RelayedEstimate
		if i >= ticks-5 {
			rel = &RelayedEstimate{PNode: s.PNode, PCPU: s.PCPU, PMEM: s.PMEM}
		}
		if _, err := sendRelayed(agent, s.Time, s.Counters.Slice(), measured, rel); err != nil {
			t.Fatal(err)
		}
	}

	base := "http://" + osrv.Addr()
	out := string(scrape(t, client, base+"/metrics"))
	for _, want := range []string{
		// Per-node power gauges from the latest estimate.
		`highrpm_node_power_watts{node="node-a",component="node"} `,
		`highrpm_node_power_watts{node="node-a",component="cpu"} `,
		`highrpm_node_power_watts{node="node-a",component="mem"} `,
		`highrpm_node_power_watts{node="node-a",component="node_prime"} `,
		`highrpm_node_from_measurement{node="node-a"} `,
		// Service and store counters mirrored from Stats.
		"highrpm_service_nodes 1",
		"highrpm_service_samples_total 20",
		"highrpm_service_relayed_samples_total 5",
		"highrpm_store_ingested_samples_total 20",
		// Self-metering: one overhead tick per estimation.
		"highrpm_overhead_ticks_total 20",
		"highrpm_overhead_wall_seconds_total ",
		"highrpm_overhead_tick_seconds_count 20",
		"highrpm_overhead_alloc_bytes_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// The last sample carried no IM reading, so the ipmi component of the
	// latest estimate is NaN on the exposition.
	if !strings.Contains(out, `highrpm_node_power_watts{node="node-a",component="ipmi"} NaN`) {
		t.Errorf("ipmi component should be NaN between measurements")
	}

	// /api/v1/series must agree byte-for-byte with the TCP query path.
	tcpBody, err := agent.Query(QueryRequest{NodeID: "node-a", Channel: "p_node", From: 0, To: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	var tcpJSON bytes.Buffer
	if err := json.NewEncoder(&tcpJSON).Encode(tcpBody); err != nil {
		t.Fatal(err)
	}
	httpJSON := scrape(t, client, base+"/api/v1/series?node=node-a&channel=p_node&from=0&to=1e12")
	if !bytes.Equal(tcpJSON.Bytes(), httpJSON) {
		t.Errorf("TCP and HTTP series encodings differ:\ntcp:  %s\nhttp: %s", tcpJSON.Bytes(), httpJSON)
	}

	// Readiness tracks the service lifecycle.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz while serving = %d, want 200", resp.StatusCode)
	}
	agent.Close()
	if err := svc.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after shutdown = %d, want 503", resp.StatusCode)
	}
}

// TestObsAgentMetricsDegraded exercises the AgentMetrics adapter through a
// ResilientAgent degradation: gauges must reflect the flip and readiness
// must report ready-but-degraded.
func TestObsAgentMetricsDegraded(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	am := NewAgentMetrics(reg)

	srv := obs.NewServer(reg, obs.DefaultServerOptions())
	srv.SetStore(svc.Store())
	srv.SetHealth(func() obs.Health {
		h := svc.Health()
		if h.Ready && am.AnyDegraded() {
			h.Degraded = true
			h.Detail = "agent(s) serving local estimates"
		}
		return h
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Errorf("obs shutdown: %v", err)
		}
	})
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}

	ra, err := DialResilient(svc.Addr(), "node-r", DefaultAgentOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	node, err := platform.NewNode(platform.ARMConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Find("HPCC/FFT")
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(b)

	send := func(i int) {
		s := node.Step(1)
		if _, err := ra.Send(s.Time, s.Counters.Slice(), nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		am.Observe(ra)
	}
	for i := 0; i < 5; i++ {
		send(i)
	}
	if am.AnyDegraded() {
		t.Fatal("degraded before service loss")
	}

	// Kill the service; the resilient agent degrades to local estimates.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		send(i)
	}
	if ra.Mode() != ModeDegraded {
		t.Fatalf("agent mode = %v, want degraded", ra.Mode())
	}
	if !am.AnyDegraded() {
		t.Fatal("AgentMetrics did not record degradation")
	}

	out := string(scrape(t, client, "http://"+srv.Addr()+"/metrics"))
	for _, want := range []string{
		`highrpm_agent_mode{node="node-r"} 1`,
		`highrpm_agent_local_served_total{node="node-r"} 5`,
		`highrpm_agent_sent_total{node="node-r"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	// Service down: not ready outranks degraded.
	resp, err := client.Get("http://" + srv.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with service down = %d %s", resp.StatusCode, body)
	}
}
