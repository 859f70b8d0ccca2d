package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around
// a call into a layer. Spans of one request share Req. Parent is the ID of
// the span that caused this one (0 for a root). Times are Unix
// nanoseconds.
//
// gen.request roots are live requests inside the measured window. The
// layers behind the socket cannot be seen from outside, so the same
// sample is afterwards replayed through each layer's public API in
// isolation; those replay spans carry the live request's Req but nest in
// time under a gen.replay span, not under the live root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects spans and hands out their IDs.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(parent, req int64, name string, start, end time.Time) int64 {
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its direct children. Children may overlap each
// other and may stick out of the parent; only the covered part inside the
// parent counts, and it counts once.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanSummary is the per-name digest written next to the raw spans.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	P50Ns    float64 `json:"p50_ns"`
	SelfP50  float64 `json:"self_p50_ns"`
	TotalNs  int64   `json:"total_ns"`
	TotalOwn int64   `json:"total_self_ns"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string][]int{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		var durs, selfs []float64
		sum := spanSummary{Name: n, Count: len(byName[n])}
		for _, i := range byName[n] {
			s := spans[i]
			durs = append(durs, float64(s.End-s.Start))
			selfs = append(selfs, float64(self[s.ID]))
			sum.TotalNs += s.End - s.Start
			sum.TotalOwn += self[s.ID]
		}
		sum.P50Ns, sum.SelfP50 = median(durs), median(selfs)
		out = append(out, sum)
	}
	return out
}

// writeSpans numbers the spans and writes them, with their summary, to
// dir/spans-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summarize(spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}
