package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"highrpm/internal/tsdb"
)

// Health is a component's answer to the readiness probes. Ready=false
// means the service cannot serve (returns 503); Degraded=true with
// Ready=true is the §6.4.6 posture — agents are serving local estimates —
// and reports 200 with status "degraded" so orchestrators keep routing
// while dashboards show the impairment.
type Health struct {
	Ready    bool   `json:"-"`
	Degraded bool   `json:"-"`
	Status   string `json:"status"`
	Detail   string `json:"detail,omitempty"`
}

// ServerOptions configures the embeddable HTTP server.
type ServerOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and cost CPU, so they
	// are opt-in per deployment.
	EnablePprof bool
}

// DefaultServerOptions returns the deployment defaults: pprof off.
func DefaultServerOptions() ServerOptions {
	return ServerOptions{}
}

// readHeaderTimeout bounds reading a request's header so an idle or
// hostile peer cannot pin a connection goroutine.
const readHeaderTimeout = 5 * time.Second

// Server is the embeddable observability endpoint: /metrics in Prometheus
// text format, /api/v1/query and /api/v1/series JSON over the tsdb query
// API, /healthz and /readyz probes, and optional pprof. Create with
// NewServer, wire SetStore/SetHealth, then Listen.
type Server struct {
	reg  *Registry
	opts ServerOptions

	mu     sync.Mutex
	store  *tsdb.Store
	health func() Health

	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup

	scrapes  Counter
	requests CounterVec
}

// NewServer wraps a registry. The server meters itself: every scrape and
// API request lands in highrpm_http_requests_total, so the cost of being
// observed is itself observable.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	return &Server{
		reg:  reg,
		opts: opts,
		scrapes: reg.Counter("highrpm_http_scrapes_total",
			"Completed /metrics expositions."),
		requests: reg.CounterVec("highrpm_http_requests_total",
			"HTTP requests served, by path.", "path"),
	}
}

// SetStore attaches the history store behind /api/v1/query and
// /api/v1/series. Without one the API endpoints answer 503.
func (s *Server) SetStore(st *tsdb.Store) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

// SetHealth attaches the readiness callback behind /readyz. Without one
// the server reports ready as long as it is serving.
func (s *Server) SetHealth(fn func() Health) {
	s.mu.Lock()
	s.health = fn
	s.mu.Unlock()
}

// Listen binds addr ("host:port"; ":0" picks a free port) and serves in a
// background goroutine. It returns immediately; Addr reports the bound
// address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/v1/series", s.handleSeries)
	mux.HandleFunc("/api/v1/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve always returns a non-nil error; ErrServerClosed is the
		// expected Close/Shutdown outcome.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server gracefully: in-flight requests finish,
// idle connections close, and whatever remains after grace is cut. Safe
// to call before Listen (a no-op) and more than once.
func (s *Server) Shutdown(grace time.Duration) error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// The grace expired with requests still in flight; cut them.
		if cerr := s.srv.Close(); err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// Close stops the server immediately, cutting in-flight requests.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	s.requests.With("/metrics").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return // client went away mid-scrape; nothing to salvage
	}
	s.scrapes.Inc()
}

// getStore fetches the attached store, answering 503 when there is none.
func (s *Server) getStore(w http.ResponseWriter) (*tsdb.Store, bool) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		jsonError(w, http.StatusServiceUnavailable, "no history store attached")
		return nil, false
	}
	return st, true
}

// handleSeries answers /api/v1/series: one node's channel (or the
// cluster aggregate with node empty) over [from, to] at res seconds,
// encoded exactly like a KindSeries TCP reply and highrpm-query -json.
func (s *Server) handleSeries(w http.ResponseWriter, req *http.Request) {
	s.requests.With("/api/v1/series").Inc()
	st, ok := s.getStore(w)
	if !ok {
		return
	}
	q := req.URL.Query()
	from, err := parseFloat(q.Get("from"), 0)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	to, err := parseFloat(q.Get("to"), math.MaxFloat64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	res := 0
	if v := q.Get("res"); v != "" {
		res, err = strconv.Atoi(v)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad res: "+err.Error())
			return
		}
	}
	channel := q.Get("channel")
	if channel == "" {
		channel = string(tsdb.ChanPNode)
	}
	body, err := st.QuerySeries(q.Get("node"), channel, from, to, res)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, body)
}

// handleQuery answers /api/v1/query: the latest raw point of a channel,
// for one node or for every node with history, one single-point
// SeriesBody per node (the instant read dashboards poll).
func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	s.requests.With("/api/v1/query").Inc()
	st, ok := s.getStore(w)
	if !ok {
		return
	}
	q := req.URL.Query()
	channel := q.Get("channel")
	if channel == "" {
		channel = string(tsdb.ChanPNode)
	}
	nodes := []string{}
	if node := q.Get("node"); node != "" {
		nodes = append(nodes, node)
	} else {
		nodes = st.Nodes()
	}
	out := make([]tsdb.SeriesBody, 0, len(nodes))
	for _, node := range nodes {
		p, err := st.Latest(node, tsdb.Channel(channel))
		if err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		out = append(out, tsdb.SeriesBody{
			NodeID:      node,
			Channel:     channel,
			ResolutionS: int(tsdb.Raw),
			Points:      tsdb.ToSeriesPoints([]tsdb.Point{p}),
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.requests.With("/healthz").Inc()
	writeJSON(w, Health{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	s.requests.With("/readyz").Inc()
	s.mu.Lock()
	fn := s.health
	s.mu.Unlock()
	h := Health{Ready: true}
	if fn != nil {
		h = fn()
	}
	switch {
	case !h.Ready:
		h.Status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	case h.Degraded:
		h.Status = "degraded"
	default:
		h.Status = "ready"
	}
	writeJSON(w, h)
}

// writeJSON encodes v with encoding/json's default (compact) form plus
// the trailing newline — the same bytes json.NewEncoder produces for the
// CLI's -json output.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func parseFloat(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}
