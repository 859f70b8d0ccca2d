package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		p, v := tailPercentile(sorted)
		if p != tc.want {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, p, tc.want)
		}
		if beyond := tc.n - int(v); tc.want > 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, p)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // sticks out of root
		{ID: 5, Parent: 3, Name: "d", Start: 35, End: 45},   // grandchild: covers b, not root
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 300}, // a replay child outside the root's interval
		{ID: 7, Name: "lone", Start: 5, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // [10,60) covered once, [90,100) clipped
		2: 30, 3: 30 - 10, 4: 40, 5: 10, 6: 100,
		7: 20, // no children: all of it
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(7, 4, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(7, 4, 120, 10)
	c, _ := generate(8, 4, 120, 10)
	if a.hash != b.hash {
		t.Error("same seed, different input hash")
	}
	if a.hash == c.hash {
		t.Error("different seeds, same input hash")
	}
	if a.nodes[0].id != "cn0001" || a.nodes[3].id != "cn0004" {
		t.Errorf("node names %s…%s, want sequential cn0001…", a.nodes[0].id, a.nodes[3].id)
	}
	for _, n := range a.nodes {
		for s := range n.seconds {
			if got, want := n.seconds[s].measured != nil, s%10 == 0; got != want {
				t.Fatalf("%s second %d: IM reading present=%v, want %v", n.id, s, got, want)
			}
			if s > 0 && reflect.DeepEqual(n.seconds[s].pmc, n.seconds[s-1].pmc) {
				t.Fatalf("%s second %d repeats the previous PMC vector", n.id, s)
			}
			if n.seconds[s].pnode <= 0 {
				t.Fatalf("%s second %d: node power %v (idle node?)", n.id, s, n.seconds[s].pnode)
			}
		}
	}
	dense, _ := generate(7, 1, 30, 1)
	for s := range dense.nodes[0].seconds {
		if dense.nodes[0].seconds[s].measured == nil {
			t.Fatalf("dense trace: second %d has no IM reading", s)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: json %q / code %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %+v breaks the naming contract", d)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}

// smokeSizes is a tiny fixed-operation run: 8 nodes × 64 s.
func smokeSizes() sizes {
	return sizes{
		nodes: 8, traceLen: 64, trainPerSuite: 60,
		warmTicks: 16, preloadTicks: 128,
		ticks: 32, setupReps: 1,
		oracleNodes: 2, replayTicks: 32, recoverCycles: 1,
		prefixTicks: 40, hotNodes: 4,
		writerEvery: 2 * time.Millisecond, warmQueries: 4,
	}
}

// TestSmokeAllWorkloads runs every workload traced at a tiny size: each
// must pass the oracle, and what it measures must be exactly what the
// harness declares.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // durable state goes under the working directory
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	declared := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			declared[d.Name] = true
		}
	}
	measured := map[string]bool{}
	for _, sp := range specs {
		res, err := runWorkload(sp, 1, smokeSizes(), true, dir)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.Ops.Failed != 0 || res.Ops.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", sp.name, res.Ops.Failed, res.Ops.Attempted, res.Ops.Notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); it must be measured and non-zero on every workload", sp.name, d.Name, v, ok)
			}
		}
		var undeclared []string
		for name := range res.Metrics {
			measured[name] = true
			if !declared[name] {
				undeclared = append(undeclared, name)
			}
		}
		sort.Strings(undeclared)
		if len(undeclared) > 0 {
			t.Errorf("%s: measured but not declared: %v", sp.name, undeclared)
		}
		if _, err := os.Stat(dir + "/spans-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
	// Not measurable at smoke size: the overhead figure compares the two
	// halves of a timed window, and 128-point series never seal a block
	// for the cache to hold.
	measured["gen.trace_overhead_pct"], measured["tsdb.cache_hit_ratio"] = true, true
	var never []string
	for name := range declared {
		if !measured[name] {
			never = append(never, name)
		}
	}
	sort.Strings(never)
	if len(never) > 0 {
		t.Errorf("declared but measured on no workload: %v", never)
	}
}
