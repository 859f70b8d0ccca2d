package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"highrpm/internal/leaktest"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry populates a registry the way the monitor does — families
// registered out of name order, label values created out of sorted order,
// non-finite values included — so the golden bytes prove the exposition
// sorts and formats deterministically.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	// Registered last alphabetically, first here: order must not leak.
	ticks := reg.Histogram("highrpm_overhead_tick_seconds",
		"Wall-clock latency of one estimation tick.", []float64{0.001, 0.01, 0.1})
	ticks.Observe(0.0005)
	ticks.Observe(0.02)
	ticks.Observe(5)

	power := reg.GaugeVec("highrpm_node_power_watts",
		"Latest restored power per node and component.", "node", "component")
	// Created in reverse order; exposition must sort by label values.
	power.With("node-01", "node").Set(96.5)
	power.With("node-00", "node").Set(101.25)
	power.With("node-00", "ipmi").Set(math.NaN())
	power.With("node-00", "cpu").Set(55.125)

	scrapes := reg.Counter("highrpm_http_scrapes_total", "Completed /metrics expositions.")
	scrapes.Add(42)

	esc := reg.GaugeVec("highrpm_escape_check", `Help with \backslash`, "path")
	esc.With("a\"b\\c\nd").Set(1)

	// A labeled family with no series yet must render nothing at all.
	reg.GaugeVec("highrpm_empty_vec", "Labeled family with no series.", "node")
	return reg
}

func TestMetricsExpositionGolden(t *testing.T) {
	reg := goldenRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	if strings.Contains(buf.String(), "highrpm_empty_vec") {
		t.Error("family with no series leaked into exposition")
	}
	// Byte-stability: a second render of the same state must be identical.
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two expositions of identical state differ")
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter value = %v, want 3.5", got)
	}
	c.Set(10) // snapshot mirroring
	if got := c.Value(); got != 10 {
		t.Errorf("counter after Set = %v, want 10", got)
	}
	g := reg.Gauge("g", "")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge value = %v, want 3", got)
	}
	// Re-registration with the same shape returns the same instrument.
	if got := reg.Counter("c_total", "").Value(); got != 10 {
		t.Errorf("re-registered counter = %v, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Errorf("sum = %v, want 555.5", h.Sum())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="10"} 2`,
		`h_bucket{le="100"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_sum 555.5`,
		`h_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	assertPanics(t, "kind mismatch", func() { reg.Gauge("m", "") })
	reg.GaugeVec("v", "", "a", "b")
	assertPanics(t, "label-name mismatch", func() { reg.GaugeVec("v", "", "a", "c") })
	assertPanics(t, "label-count mismatch", func() { reg.GaugeVec("v", "", "a") })
	assertPanics(t, "label-value arity", func() { reg.GaugeVec("w", "", "a").With("x", "y") })
	assertPanics(t, "empty name", func() { reg.Counter("", "") })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestOnGatherRunsPerExposition(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("refreshed", "")
	n := 0
	reg.OnGather(func() { n++; g.Set(float64(n)) })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("gather callback ran %d times, want 2", n)
	}
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

func TestConcurrentInstruments(t *testing.T) {
	leaktest.Check(t)
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h", "", TickBuckets)
	v := reg.CounterVec("v_total", "", "worker")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(0.001)
				v.With("w").Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := v.With("w").Value(); got != workers*perWorker {
		t.Errorf("vec counter = %v, want %d", got, workers*perWorker)
	}
}

func TestSelfMeterTick(t *testing.T) {
	reg := NewRegistry()
	m := NewSelfMeter(reg)
	for i := 0; i < 3; i++ {
		done := m.Tick()
		done()
	}
	if got := m.Ticks(); got != 3 {
		t.Errorf("ticks = %v, want 3", got)
	}
	// Nil meter must be a safe no-op (the unmetered service path).
	var nilMeter *SelfMeter
	nilMeter.Tick()()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"highrpm_overhead_ticks_total 3",
		"highrpm_overhead_tick_seconds_count 3",
		"highrpm_overhead_goroutines ",
		"highrpm_overhead_alloc_bytes_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("self-meter exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:           "1",
		1.5:         "1.5",
		math.NaN():  "NaN",
		math.Inf(1): "+Inf",
		1e21:        "1e+21",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatFloat(-Inf) = %q", got)
	}
}
