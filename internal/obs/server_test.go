package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// startServer boots a Server on a loopback port and registers LIFO
// cleanups: the HTTP client's idle pool is flushed first, then the server
// shuts down, and (because leaktest.Check is armed before this is called)
// the leak check runs last.
func startServer(t *testing.T, reg *Registry, opts ServerOptions) (*Server, *http.Client) {
	t.Helper()
	s := NewServer(reg, opts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(2 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return s, &http.Client{Transport: tr}
}

func get(t *testing.T, c *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// seededStore ingests three seconds of history for two nodes.
func seededStore(t *testing.T) *tsdb.Store {
	t.Helper()
	st := tsdb.New(tsdb.DefaultOptions())
	for _, node := range []string{"node-00", "node-01"} {
		for i := 0; i < 3; i++ {
			smp := tsdb.Sample{
				PNode: 100 + float64(i), PCPU: 50, PMEM: 10,
				PNodePrime: 99, IPMI: math.NaN(),
			}
			if err := st.Ingest(node, float64(i), smp); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestServerMetricsEndpoint(t *testing.T) {
	leaktest.Check(t)
	reg := NewRegistry()
	reg.Counter("demo_total", "A demo counter.").Add(7)
	s, c := startServer(t, reg, DefaultServerOptions())

	code, body := get(t, c, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	out := string(body)
	for _, want := range []string{
		"demo_total 7\n",
		// The server meters its own serving.
		`highrpm_http_requests_total{path="/metrics"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	// The scrape counter reflects completed expositions on the next scrape.
	_, body = get(t, c, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(string(body), "highrpm_http_scrapes_total 1") {
		t.Errorf("second scrape should report 1 completed scrape:\n%s", body)
	}
}

func TestServerSeriesEndpoint(t *testing.T) {
	leaktest.Check(t)
	reg := NewRegistry()
	st := seededStore(t)
	s, c := startServer(t, reg, DefaultServerOptions())
	s.SetStore(st)

	code, body := get(t, c, "http://"+s.Addr()+"/api/v1/series?node=node-00&channel=p_node&from=0&to=10")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", code, body)
	}
	var sb tsdb.SeriesBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sb.NodeID != "node-00" || sb.Channel != "p_node" || len(sb.Points) != 3 {
		t.Fatalf("unexpected body: %+v", sb)
	}
	if float64(sb.Points[2].Value) != 102 {
		t.Errorf("last value = %v, want 102", sb.Points[2].Value)
	}

	// Byte-for-byte agreement with the shared encoder: the HTTP body must
	// equal json.NewEncoder output of Store.QuerySeries — the same bytes
	// the TCP KindSeries reply and highrpm-query -json produce.
	want, err := st.QuerySeries("node-00", "p_node", 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Errorf("HTTP series bytes differ from shared encoding:\nhttp: %s\nwant: %s", body, buf.Bytes())
	}

	// NaN IPMI values must cross the wire as JSON null.
	_, body = get(t, c, "http://"+s.Addr()+"/api/v1/series?node=node-00&channel=ipmi")
	if !bytes.Contains(body, []byte(`"v":null`)) {
		t.Errorf("NaN channel should encode null values: %s", body)
	}

	// Cluster aggregate: empty node sums across nodes.
	_, body = get(t, c, "http://"+s.Addr()+"/api/v1/series?channel=p_node")
	var agg tsdb.SeriesBody
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatalf("decode aggregate: %v", err)
	}
	if agg.NodeID != "" || len(agg.Points) != 3 || float64(agg.Points[0].Value) != 200 {
		t.Errorf("aggregate body: %+v", agg)
	}
}

func TestServerSeriesBadParams(t *testing.T) {
	leaktest.Check(t)
	s, c := startServer(t, NewRegistry(), DefaultServerOptions())
	s.SetStore(seededStore(t))

	for _, q := range []string{
		"from=abc",
		"to=xyz",
		"res=1.5",
		"res=7",         // not a known resolution
		"channel=bogus", // unknown channel
	} {
		code, body := get(t, c, "http://"+s.Addr()+"/api/v1/series?"+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", q, code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: want JSON error body, got %s", q, body)
		}
	}
}

func TestServerQueryEndpoint(t *testing.T) {
	leaktest.Check(t)
	s, c := startServer(t, NewRegistry(), DefaultServerOptions())
	s.SetStore(seededStore(t))

	// All nodes: one single-point body each, sorted by node.
	code, body := get(t, c, "http://"+s.Addr()+"/api/v1/query")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var out []tsdb.SeriesBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].NodeID != "node-00" || out[1].NodeID != "node-01" {
		t.Fatalf("unexpected instant read: %+v", out)
	}
	for _, sb := range out {
		if len(sb.Points) != 1 || float64(sb.Points[0].Value) != 102 {
			t.Errorf("node %s latest: %+v", sb.NodeID, sb.Points)
		}
	}

	// Single node.
	_, body = get(t, c, "http://"+s.Addr()+"/api/v1/query?node=node-01&channel=p_cpu")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Channel != "p_cpu" || float64(out[0].Points[0].Value) != 50 {
		t.Errorf("single-node instant read: %+v", out)
	}

	// Unknown node is a client error.
	code, _ = get(t, c, "http://"+s.Addr()+"/api/v1/query?node=nope")
	if code != http.StatusBadRequest {
		t.Errorf("unknown node: status = %d, want 400", code)
	}
}

func TestServerNoStore503(t *testing.T) {
	leaktest.Check(t)
	s, c := startServer(t, NewRegistry(), DefaultServerOptions())
	for _, path := range []string{"/api/v1/series", "/api/v1/query"} {
		code, body := get(t, c, "http://"+s.Addr()+path)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s without store: status = %d, want 503 (%s)", path, code, body)
		}
	}
}

func TestServerHealthAndReadiness(t *testing.T) {
	leaktest.Check(t)
	s, c := startServer(t, NewRegistry(), DefaultServerOptions())

	code, body := get(t, c, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ok"`)) {
		t.Errorf("/healthz = %d %s", code, body)
	}

	// No health callback: ready by default.
	code, body = get(t, c, "http://"+s.Addr()+"/readyz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ready"`)) {
		t.Errorf("default /readyz = %d %s", code, body)
	}

	// Degraded agents: still 200, but status says so.
	s.SetHealth(func() Health { return Health{Ready: true, Degraded: true, Detail: "1 agent degraded"} })
	code, body = get(t, c, "http://"+s.Addr()+"/readyz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status":"degraded"`)) {
		t.Errorf("degraded /readyz = %d %s", code, body)
	}
	if !bytes.Contains(body, []byte("1 agent degraded")) {
		t.Errorf("degraded detail missing: %s", body)
	}

	// Not ready: 503.
	s.SetHealth(func() Health { return Health{Ready: false} })
	code, body = get(t, c, "http://"+s.Addr()+"/readyz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"status":"unavailable"`)) {
		t.Errorf("unavailable /readyz = %d %s", code, body)
	}
}

func TestServerPprofGate(t *testing.T) {
	leaktest.Check(t)
	// Off by default.
	s, c := startServer(t, NewRegistry(), DefaultServerOptions())
	code, _ := get(t, c, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", code)
	}
	// On when enabled.
	opts := DefaultServerOptions()
	opts.EnablePprof = true
	s2, c2 := startServer(t, NewRegistry(), opts)
	code, body := get(t, c2, "http://"+s2.Addr()+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof enabled: status = %d, body %d bytes", code, len(body))
	}
}

func TestServerShutdownIdempotent(t *testing.T) {
	leaktest.Check(t)
	s := NewServer(NewRegistry(), DefaultServerOptions())
	// Before Listen both are no-ops.
	if err := s.Shutdown(time.Second); err != nil {
		t.Errorf("shutdown before listen: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close before listen: %v", err)
	}
	if s.Addr() != "" {
		t.Errorf("addr before listen = %q, want empty", s.Addr())
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Error("addr after listen is empty")
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Errorf("first shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil && err != http.ErrServerClosed {
		t.Errorf("second shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close after shutdown: %v", err)
	}
}
