package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: gather callbacks run
// first, then families are written in sorted name order and each family's
// series in sorted label-value order, so identical registry state always
// produces identical bytes — the property the golden exposition test
// pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams, cbs := r.snapshot()
	for _, fn := range cbs {
		fn()
	}
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

// sortedSeries snapshots a family's series in deterministic label order.
func (f *family) sortedSeries() []*instrument {
	f.mu.Lock()
	out := make([]*instrument, 0, len(f.series))
	for _, m := range f.series {
		out = append(out, m)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (f *family) write(bw *bufio.Writer) {
	series := f.sortedSeries()
	if len(series) == 0 {
		return
	}
	if f.help != "" {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
	}
	bw.WriteString("# TYPE ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	bw.WriteString(f.kind.String())
	bw.WriteByte('\n')
	for _, m := range series {
		switch f.kind {
		case KindHistogram:
			f.writeHistogram(bw, m)
		default:
			writeSample(bw, f.name, f.labels, m.labelValues, "", "", m.load())
		}
	}
}

// writeHistogram renders one series' cumulative buckets, sum and count.
func (f *family) writeHistogram(bw *bufio.Writer, m *instrument) {
	m.hmu.Lock()
	counts := append([]uint64(nil), m.bcounts...)
	sum, count := m.hsum, m.hcount
	m.hmu.Unlock()
	for i, ub := range f.buckets {
		writeSample(bw, f.name+"_bucket", f.labels, m.labelValues, "le", formatFloat(ub), float64(counts[i]))
	}
	writeSample(bw, f.name+"_bucket", f.labels, m.labelValues, "le", "+Inf", float64(count))
	writeSample(bw, f.name+"_sum", f.labels, m.labelValues, "", "", sum)
	writeSample(bw, f.name+"_count", f.labels, m.labelValues, "", "", float64(count))
}

// writeSample renders one exposition line. extraName/extraValue append a
// synthetic label (the histogram "le") after the family labels.
func writeSample(bw *bufio.Writer, name string, labels, values []string, extraName, extraValue string, v float64) {
	bw.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		bw.WriteByte('{')
		for i, ln := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(ln)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(values[i]))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

// formatFloat renders a sample value: shortest round-trip form, with the
// Prometheus spellings for the non-finite values.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
