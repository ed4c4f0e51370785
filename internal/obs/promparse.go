package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionMetric is one parsed sample line of a Prometheus text
// exposition: the metric name, its label pairs, the sample value, and —
// in the OpenMetrics-flavored exposition — the bucket's exemplar.
type ExpositionMetric struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *ExemplarData
}

// ExemplarData is one parsed exemplar (`# {labels} value [timestamp]`).
type ExemplarData struct {
	Labels map[string]string
	Value  float64
	TS     float64
	HasTS  bool
}

// Exposition is the parsed form of a Prometheus text payload: every sample
// plus, per family name, the declared TYPE.
type Exposition struct {
	Samples []ExpositionMetric
	Types   map[string]string // family name -> counter|gauge|histogram|...
	Help    map[string]string // family name -> HELP text
}

// Families returns the distinct family names seen, folding histogram
// sample suffixes (_bucket/_sum/_count) onto their declared family.
func (e *Exposition) Families() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range e.Samples {
		name := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && e.Types[base] == typeHistogram {
				name = base
				break
			}
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// ParsePrometheus is the in-tree sanity parser for the text exposition
// format: it validates the line grammar strictly enough to catch the
// failure modes a hand-rolled writer can produce — malformed names,
// unbalanced label braces, unquoted label values, non-numeric samples,
// samples with no preceding TYPE, duplicate TYPE lines — and returns the
// parsed samples. It is deliberately NOT a full client_model parser; it is
// the gate the conformance matrix's live scrapes and the exposition golden
// test run against.
func ParsePrometheus(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return nil, fmt.Errorf("obs: line %d: malformed HELP line %q", lineNo, line)
			}
			exp.Help[name] = rest[len(name)+1:]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validMetricName(fields[0]) {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
			}
			switch fields[1] {
			case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, fields[1])
			}
			if _, dup := exp.Types[fields[0]]; dup {
				return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", lineNo, fields[0])
			}
			exp.Types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal and ignored
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if familyOf(m.Name, exp.Types) == "" {
			return nil, fmt.Errorf("obs: line %d: sample %q has no TYPE declaration", lineNo, m.Name)
		}
		exp.Samples = append(exp.Samples, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(exp.Samples) == 0 {
		return nil, fmt.Errorf("obs: exposition contains no samples")
	}
	return exp, nil
}

// familyOf resolves a sample name to its declared family, accepting the
// histogram sample suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := types[base]; ok && (t == typeHistogram || t == "summary") {
				return base
			}
		}
	}
	return ""
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(line string) (ExpositionMetric, error) {
	m := ExpositionMetric{Labels: make(map[string]string)}
	rest := line
	brace := strings.IndexByte(line, '{')
	if brace >= 0 {
		m.Name = line[:brace]
		// The matching close brace must be found with quote awareness, not
		// LastIndexByte: an exemplar suffix carries its own label set whose
		// '}' would otherwise swallow the sample value.
		end := closingBrace(line, brace)
		if end < 0 {
			return m, fmt.Errorf("unbalanced label braces in %q", line)
		}
		if err := parseLabels(line[brace+1:end], m.Labels); err != nil {
			return m, err
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		var ok bool
		m.Name, rest, ok = strings.Cut(line, " ")
		if !ok {
			return m, fmt.Errorf("sample line %q has no value", line)
		}
		rest = strings.TrimSpace(rest)
	}
	if !validMetricName(m.Name) {
		return m, fmt.Errorf("invalid metric name %q", m.Name)
	}
	// Split off an OpenMetrics exemplar (` # {...} value [ts]`) before
	// validating the sample tokens.
	samplePart, exPart, hasEx := strings.Cut(rest, " # ")
	fields := strings.Fields(samplePart)
	if len(fields) == 0 || len(fields) > 2 {
		return m, fmt.Errorf("sample %q wants `value [timestamp]`, got %q", m.Name, samplePart)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return m, fmt.Errorf("non-numeric sample value %q", fields[0])
	}
	m.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return m, fmt.Errorf("non-numeric sample timestamp %q", fields[1])
		}
	}
	if hasEx {
		ex, err := parseExemplar(strings.TrimSpace(exPart))
		if err != nil {
			return m, fmt.Errorf("sample %q: %w", m.Name, err)
		}
		m.Exemplar = ex
	}
	return m, nil
}

// closingBrace returns the index of the '}' matching the '{' at open,
// skipping quoted label values (where '}' and escaped quotes are legal),
// or -1 when unterminated.
func closingBrace(s string, open int) int {
	inQuote := false
	for i := open + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parseExemplar validates `{k="v",...} value [timestamp]` — the
// OpenMetrics exemplar grammar after the `# ` marker.
func parseExemplar(s string) (*ExemplarData, error) {
	if s == "" || s[0] != '{' {
		return nil, fmt.Errorf("exemplar %q does not start with a label set", s)
	}
	end := strings.IndexByte(s, '}')
	if end < 0 {
		return nil, fmt.Errorf("exemplar %q has an unterminated label set", s)
	}
	ex := &ExemplarData{Labels: make(map[string]string)}
	if err := parseLabels(s[1:end], ex.Labels); err != nil {
		return nil, fmt.Errorf("exemplar labels: %w", err)
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) == 0 || len(fields) > 2 {
		return nil, fmt.Errorf("exemplar %q wants `value [timestamp]` after the labels", s)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("non-numeric exemplar value %q", fields[0])
	}
	ex.Value = v
	if len(fields) == 2 {
		ts, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("non-numeric exemplar timestamp %q", fields[1])
		}
		ex.TS, ex.HasTS = ts, true
	}
	return ex, nil
}

// parseLabels parses `k1="v1",k2="v2"` into dst.
func parseLabels(s string, dst map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label pair %q missing '='", s)
		}
		name := s[:eq]
		if !validLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %q value is not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				closed = true
				s = s[i+1:]
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("label %q value is not terminated", name)
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		dst[name] = val.String()
		s = strings.TrimPrefix(s, ",")
	}
	return nil
}

// CheckHistograms validates every declared histogram family's bucket
// structure: each series (label set minus le) must carry a terminal +Inf
// bucket, its cumulative counts must be non-decreasing in ascending le
// order, the +Inf count must equal the series' _count sample, and any
// bucket exemplar must carry a value within the bucket's bound. The
// process cells of wire.TestConformance run it over a live server's
// Prometheus and OpenMetrics expositions.
func (e *Exposition) CheckHistograms() error {
	type bucket struct {
		le  float64
		val float64
		ex  *ExemplarData
	}
	series := make(map[string][]bucket) // family + label sig -> buckets
	counts := make(map[string]float64)  // family + label sig -> _count
	hasCount := make(map[string]bool)
	for _, s := range e.Samples {
		base := strings.TrimSuffix(s.Name, "_bucket")
		if base != s.Name && e.Types[base] == typeHistogram {
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("obs: %s sample without an le label", s.Name)
			}
			var le float64
			if leStr == "+Inf" {
				le = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("obs: %s has non-numeric le %q", s.Name, leStr)
				}
				le = v
			}
			key := base + "\x00" + sigWithoutLE(s.Labels)
			series[key] = append(series[key], bucket{le: le, val: s.Value, ex: s.Exemplar})
			continue
		}
		base = strings.TrimSuffix(s.Name, "_count")
		if base != s.Name && e.Types[base] == typeHistogram {
			key := base + "\x00" + sigWithoutLE(s.Labels)
			counts[key] = s.Value
			hasCount[key] = true
		}
	}
	for key, bs := range series {
		name, _, _ := strings.Cut(key, "\x00")
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if len(bs) == 0 || !math.IsInf(bs[len(bs)-1].le, 1) {
			return fmt.Errorf("obs: histogram %s is missing its terminal +Inf bucket", name)
		}
		prev := -1.0
		prevLE := math.Inf(-1)
		for _, b := range bs {
			if b.val < prev {
				return fmt.Errorf("obs: histogram %s bucket le=%g count %g below previous bucket's %g (not cumulative)",
					name, b.le, b.val, prev)
			}
			if b.ex != nil {
				if _, ok := b.ex.Labels["trace_id"]; !ok {
					return fmt.Errorf("obs: histogram %s bucket le=%g exemplar carries no trace_id label", name, b.le)
				}
				if b.ex.Value > b.le || b.ex.Value <= prevLE {
					return fmt.Errorf("obs: histogram %s bucket le=%g exemplar value %g outside (%g, %g]",
						name, b.le, b.ex.Value, prevLE, b.le)
				}
			}
			prev = b.val
			prevLE = b.le
		}
		if hasCount[key] && bs[len(bs)-1].val != counts[key] {
			return fmt.Errorf("obs: histogram %s +Inf bucket %g != _count %g",
				name, bs[len(bs)-1].val, counts[key])
		}
	}
	return nil
}

// sigWithoutLE renders a sample's labels minus le as a stable series key.
func sigWithoutLE(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	return validMetricName(s)
}
