package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families in name order, each with HELP and TYPE
// lines, series in label order, histograms with cumulative le buckets plus
// _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders the registry in the OpenMetrics-flavored text
// format: the same families and sample lines as WritePrometheus, plus
// per-bucket exemplars (`# {trace_id="..."} value timestamp`) linking
// histogram buckets to retained traces, and the terminating `# EOF`.
// Served on /metrics content negotiation; the default exposition stays
// byte-identical to the pre-exemplar format.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// write is the one family walk behind both expositions; openMetrics adds
// the bucket exemplars and the closing `# EOF`.
func (r *Registry) write(w io.Writer, openMetrics bool) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		fn := f.fn
		f.mu.Unlock()
		if fn != nil {
			fmt.Fprintf(bw, "%s %s\n", f.name, formatValue(fn()))
			continue
		}
		if len(f.labels) == 0 {
			writeSeries(bw, f, "", f.childFor(nil), openMetrics)
			continue
		}
		for _, c := range f.sortedChildren() {
			writeSeries(bw, f, labelSig(f.labels, c.labelVals), c, openMetrics)
		}
	}
	if openMetrics {
		fmt.Fprintln(bw, "# EOF")
	}
	return bw.Flush()
}

// writeSeries emits one series of family f. sig is its label signature
// ("" when none).
func writeSeries(w io.Writer, f *family, sig string, c *child, openMetrics bool) {
	name := f.name
	if sig != "" {
		name += "{" + sig + "}"
	}
	switch f.typ {
	case typeCounter:
		fmt.Fprintf(w, "%s %d\n", name, c.counter.Value())
	case typeGauge:
		fmt.Fprintf(w, "%s %d\n", name, c.gauge.Value())
	case typeHistogram:
		writeHistogram(w, f.name, sig, c.hist, openMetrics)
	}
}

// writeHistogram emits the bucket/sum/count triplet of one histogram
// series. extraSig carries the series' label signature ("" when none);
// with exemplars, each bucket line carries its exemplar when one was
// pinned.
func writeHistogram(w io.Writer, name, extraSig string, h *Histogram, exemplars bool) {
	var ex []Exemplar
	if exemplars {
		ex = h.exemplars()
	}
	exSuffix := func(i int) string {
		if i >= len(ex) || ex[i].Trace == 0 {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
			ex[i].Trace, formatValue(ex[i].Value), float64(ex[i].TimeNS)/1e9)
	}
	cum := h.cumulative()
	for i, b := range h.bounds {
		sig := `le="` + formatValue(b) + `"`
		if extraSig != "" {
			sig = extraSig + "," + sig
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", name, sig, cum[i], exSuffix(i))
	}
	sig := `le="+Inf"`
	if extraSig != "" {
		sig = extraSig + "," + sig
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", name, sig, h.Count(), exSuffix(len(h.bounds)))
	suffix := ""
	if extraSig != "" {
		suffix = "{" + extraSig + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count())
}

// labelSig renders `k1="v1",k2="v2"` with label-value escaping.
func labelSig(names, vals []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the way Prometheus clients do: integral
// values without an exponent, everything else in shortest form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
