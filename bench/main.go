// Command bench is the repository's performance benchmark: it drives
// generated telemetry through the unmodified shipping stack — agents,
// wire codec, fleet router, services, DynamicTRR/SRR inference, tsdb,
// WAL — and reports end-to-end and per-layer metrics, measuring every
// layer from outside through its public functions. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains how
// to read and compare its output.
//
//	go run ./bench -workload direct_send_sparse -seed 1 -seconds 12 -trace 0
//	go run ./bench                     # every workload, untraced, one table
//	go run ./bench -trace 1 -out DIR   # … then the traced set, with span files
//	go run ./bench -check              # the untraced set twice, compared by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is the measured window's length; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs, the benchmark's only input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	ticks := flag.Int("ticks", 0, "measure a fixed number of ticks per node (query iterations on query_mixed) instead of -seconds, so counts repeat exactly")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics and spans instead of end-to-end metrics")
	out := flag.String("out", "", "directory for span files and results.json (default .bench_out when tracing)")
	check := flag.Bool("check", false, "run the untraced set twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if *trace == 1 && *out == "" {
		*out = ".bench_out"
	}

	var err error
	switch {
	case *workload != "":
		err = child(*workload, *seed, *seconds, *ticks, *trace == 1, *out)
	case *check:
		err = checkMode(*seed, *seconds, *ticks)
	default:
		err = parent(*seed, *seconds, *ticks, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractLine is the last line a single-workload run prints.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// child runs one workload in this process and prints, in order: a table
// of everything measured, the full result as one JSON line, and last the
// contract line — every end-to-end metric untraced, every per-layer
// metric traced. A run that failed an operation or is missing a metric
// exits non-zero.
func child(name string, seed int64, seconds float64, ticks int, trace bool, out string) error {
	sp, ok := findSpec(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sz := defaultSizes(seconds)
	sz.ticks = ticks
	res, err := runWorkload(sp, seed, sz, trace, out)
	if err != nil {
		return err
	}
	stampMeta(res)
	printTable(os.Stdout, res)
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("result %s\n", full)

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := contractLine{
		Correct:   res.Ops.Failed == 0,
		Attempted: res.Ops.Attempted, Failed: res.Ops.Failed,
		Metrics: map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !trace {
			missing = append(missing, d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not measured: %s", name, strings.Join(missing, ", "))
	}
	if res.Ops.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Ops.Failed, res.Ops.Attempted, strings.Join(res.Ops.Notes, "; "))
	}
	return nil
}

// stampMeta records where the numbers came from.
func stampMeta(res *result) {
	res.Meta["nproc"] = strconv.Itoa(runtime.NumCPU())
	res.Meta["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	res.Meta["go"] = runtime.Version()
	res.Meta["commit"] = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				res.Meta["commit"] = s.Value
			}
		}
	}
}

func printTable(w *os.File, res *result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", res.Workload, res.Seed, res.Trace)
	keys := make([]string, 0, len(res.Meta))
	for k := range res.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %s\n", k, res.Meta[k])
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			n := ""
			if c, ok := res.Counts[d.Name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "  %-36s %14.4f %-6s%s\n", d.Name, v, d.Unit, n)
		}
	}
	fmt.Fprintf(w, "  %-36s %d of %d\n", "failed operations", res.Ops.Failed, res.Ops.Attempted)
	for _, n := range res.Ops.Notes {
		fmt.Fprintf(w, "    %s\n", n)
	}
}

// runChild forks this binary for one workload, so each workload gets a
// clean heap and its own getrusage account, and returns its full result.
func runChild(name string, seed int64, seconds float64, ticks int, trace bool, out string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-ticks", strconv.Itoa(ticks), "-trace", t, "-out", out)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var res *result
	for _, ln := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(ln, "result "); ok {
			res = &result{}
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, err
			}
		}
	}
	if res != nil {
		printTable(os.Stdout, res)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no result line", name)
	}
	return res, nil
}

// runSet runs every workload once, one child each.
func runSet(seed int64, seconds float64, ticks int, trace bool, out string) ([]*result, error) {
	var set []*result
	for _, sp := range specs {
		res, err := runChild(sp.name, seed, seconds, ticks, trace, out)
		if err != nil {
			return nil, err
		}
		set = append(set, res)
	}
	return set, nil
}

// parent runs the untraced set and, with -trace 1, the traced set after
// it, and prints one JSON object holding every result.
func parent(seed int64, seconds float64, ticks int, trace bool, out string) error {
	all, err := runSet(seed, seconds, ticks, false, out)
	if err != nil {
		return err
	}
	if trace {
		traced, err := runSet(seed, seconds, ticks, true, out)
		if err != nil {
			return err
		}
		all = append(all, traced...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out+"/results.json", data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", data)
	return nil
}

// exactMetrics are functions of seed and code alone: two runs of the
// same commit must agree to the last bit.
var exactMetrics = map[string]bool{"node_mape_pct": true, "srr_mape_pct": true}

// checkMode runs the untraced set twice and compares the two by the
// bounds BENCHMARK.json gates later changes with: the benchmark must
// agree with itself before it referees anything else.
func checkMode(seed int64, seconds float64, ticks int) error {
	first, err := runSet(seed, seconds, ticks, false, "")
	if err != nil {
		return err
	}
	second, err := runSet(seed, seconds, ticks, false, "")
	if err != nil {
		return err
	}
	var bad []string
	for i := range first {
		for _, d := range endToEnd {
			a, b := first[i].Metrics[d.Name], second[i].Metrics[d.Name]
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			//lint:ignore floateq exact metrics must repeat to the last bit; that is the check
			if exactMetrics[d.Name] && a != b {
				verdict = "NOT EXACT"
			} else if worse > d.Bound {
				verdict = "OUT OF BOUND"
			}
			fmt.Printf("check %-20s %-20s %14.4f %14.4f  %+6.1f%% (bound %.0f%%) %s\n",
				first[i].Workload, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
			if verdict != "ok" {
				bad = append(bad, first[i].Workload+"/"+d.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the benchmark disagrees with itself on %s", strings.Join(bad, ", "))
	}
	return nil
}
