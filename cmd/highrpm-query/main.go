// Command highrpm-query fetches stored power history from a running
// HighRPM service over TCP: one node's series or the cluster-wide
// aggregate, at raw 1 s resolution or as 10 s / 60 s min/mean/max rollups.
// Results print as a table or export as CSV in the tracefile column
// conventions.
//
// Usage:
//
//	highrpm-query -addr host:port [-node node-00] [-channel p_cpu]
//	              [-from 0] [-to 60] [-res 10] [-csv out.csv] [-json] [-stats]
//
// Without -node the channel is aggregated (summed) across every node the
// service has history for. -csv - writes CSV to stdout. -json writes the
// series to stdout in the wire encoding — byte-for-byte the same bytes the
// observability endpoint's /api/v1/series returns for the same window
// (NaN gaps encode as null).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"highrpm/internal/cliutil"
	"highrpm/internal/cluster"
	"highrpm/internal/tracefile"
	"highrpm/internal/tsdb"
)

// flagGroups orders -help by subsystem (see internal/cliutil).
var flagGroups = []cliutil.Group{
	{Title: "Connection & window", Names: []string{"addr", "node", "channel", "from", "to", "res"}},
	{Title: "Output", Names: []string{"csv", "json", "stats"}},
}

func main() {
	var (
		addr    = flag.String("addr", "", "service address (host:port), required")
		node    = flag.String("node", "", "node ID (empty: aggregate across all nodes)")
		channel = flag.String("channel", "p_node", "channel: "+channelList())
		from    = flag.Float64("from", 0, "window start in seconds")
		to      = flag.Float64("to", math.MaxFloat64, "window end in seconds (default: everything)")
		res     = flag.Int("res", 1, "resolution in seconds: 1 (raw), 10 or 60")
		csvOut  = flag.String("csv", "", "write CSV to this path instead of a table (- for stdout)")
		jsonOut = flag.Bool("json", false, "write the series as JSON to stdout (the /api/v1/series wire encoding)")
		stats   = flag.Bool("stats", false, "also print service and store statistics")
	)
	flag.Usage = cliutil.GroupedUsage(flag.CommandLine, "highrpm-query", flagGroups)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "highrpm-query: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut && *csvOut != "" {
		fmt.Fprintln(os.Stderr, "highrpm-query: -json and -csv are mutually exclusive")
		os.Exit(2)
	}

	// An empty node ID: a query client is not a node, and the service
	// registers none for it.
	agent, err := cluster.Dial(*addr, "")
	if err != nil {
		fatal(err)
	}
	defer agent.Close()

	body, err := agent.Query(cluster.QueryRequest{
		NodeID:      *node,
		Channel:     *channel,
		From:        *from,
		To:          *to,
		ResolutionS: *res,
	})
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		// json.NewEncoder's compact form plus trailing newline — the exact
		// bytes the observability endpoint serves for this window.
		if err := json.NewEncoder(os.Stdout).Encode(body); err != nil {
			fatal(err)
		}
	} else if *csvOut != "" {
		var w io.Writer = os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := tracefile.WriteSeries(w, body.Channel, body.StorePoints()); err != nil {
			fatal(err)
		}
	} else {
		printTable(body)
	}

	if *stats {
		st, err := agent.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nservice: %d nodes, %d samples (%d measured)\n", st.Nodes, st.Samples, st.Measured)
		fmt.Printf("store: %d series, %d raw points, %d bytes (%.2f B/point, %.1fx vs 16 B uncompressed)\n",
			st.Store.Series, st.Store.Points, st.Store.Bytes, st.Store.BytesPerPoint, st.Store.CompressionRatio)
		fmt.Printf("codec: %d binary conns; frames %d binary / %d json; %d record batches carrying %d samples%s; %d samples recorded from a relayed estimate\n",
			st.BinConns, st.BinFrames, st.JSONFrames, st.Batches, st.BatchSamples, meanBatch(st.Batches, st.BatchSamples), st.Relayed)
		fmt.Printf("cache: %d hits / %d misses%s, %d decoded points resident\n",
			st.Store.CacheHits, st.Store.CacheMisses, hitRate(st.Store.CacheHits, st.Store.CacheMisses), st.Store.CachePoints)
	}
}

func printTable(body cluster.SeriesBody) {
	scope := body.NodeID
	if scope == "" {
		scope = "<all nodes>"
	}
	fmt.Printf("# %s %s @ %ds (%d points)\n", scope, body.Channel, body.ResolutionS, len(body.Points))
	if body.ResolutionS > 1 {
		fmt.Printf("%10s %10s %10s %10s %6s\n", "time_s", "mean_w", "min_w", "max_w", "n")
	} else {
		fmt.Printf("%10s %10s\n", "time_s", body.Channel+"_w")
	}
	for _, p := range body.Points {
		if body.ResolutionS > 1 {
			fmt.Printf("%10.1f %10s %10s %10s %6d\n",
				p.Time, watts(float64(p.Value)), watts(float64(p.Min)), watts(float64(p.Max)), p.Count)
		} else {
			fmt.Printf("%10.1f %10s\n", p.Time, watts(float64(p.Value)))
		}
	}
}

// meanBatch renders the mean coalescing factor when any batches arrived.
func meanBatch(batches, samples int64) string {
	if batches == 0 {
		return ""
	}
	return fmt.Sprintf(" (%.1f samples/batch)", float64(samples)/float64(batches))
}

// hitRate renders the cache hit rate when the cache has been consulted.
func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return ""
	}
	return fmt.Sprintf(" (%.1f%% hit rate)", 100*float64(hits)/float64(hits+misses))
}

// watts renders a value, leaving NaN gaps visibly empty.
func watts(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

func channelList() string {
	names := make([]string, 0, len(tsdb.Channels()))
	for _, c := range tsdb.Channels() {
		names = append(names, string(c))
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "highrpm-query: %v\n", err)
	os.Exit(1)
}
