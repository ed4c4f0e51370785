package server

import (
	"encoding/json"
	"math"
	"strconv"

	"xrefine/internal/core"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/xmltree"
)

// The answer encoder: a query response is rendered straight from the
// engine's rank output (*core.Response) into a byte buffer, with no
// intermediate API structs and no reflection. Both surfaces serve its
// bytes — the HTTP /search body and the payload of a wire OK frame — so
// they are comparable byte-for-byte inside their envelopes. The document
// is encoding/json of SearchBody with two-space indent, HTML-escaped
// strings and a trailing newline; TestEncoderMatchesJSON pins that
// equivalence against encoding/json itself.

// snippetMax is the preview budget of a result's snippet, in runes.
const snippetMax = 80

// AppendSearchBody appends the /search JSON document for resp onto dst
// and returns the extended slice. Snippets render through eng; a nil eng
// omits them, the way a document-less engine does. explain, when non-nil,
// is appended as the last field. Without it the encode allocates only
// when dst must grow — snippets included — so a warm buffer makes it
// allocation-free.
func AppendSearchBody(dst []byte, resp *core.Response, eng Backend, explain *obs.SpanData) []byte {
	dst = append(dst, '{')
	dst = appendIndent(dst, 1)
	dst = append(dst, `"terms": `...)
	dst = appendStringArray(dst, resp.Terms, 1)
	dst = append(dst, ',')
	dst = appendIndent(dst, 1)
	dst = append(dst, `"need_refine": `...)
	dst = strconv.AppendBool(dst, resp.NeedRefine)
	if len(resp.SearchFor) > 0 {
		dst = append(dst, ',')
		dst = appendIndent(dst, 1)
		dst = append(dst, `"search_for": [`...)
		for i, c := range resp.SearchFor {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 2)
			dst = c.Type.AppendPathJSON(dst)
		}
		dst = appendIndent(dst, 1)
		dst = append(dst, ']')
	}
	dst = append(dst, ',')
	dst = appendIndent(dst, 1)
	dst = append(dst, `"queries": `...)
	switch {
	case len(resp.Queries) == 0:
		// The served format: a response with zero queries serializes as
		// null, not [] (SearchBody rebuilds the list with append).
		dst = append(dst, "null"...)
	default:
		dst = append(dst, '[')
		for i := range resp.Queries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 2)
			dst = appendRankedQuery(dst, &resp.Queries[i], eng)
		}
		dst = appendIndent(dst, 1)
		dst = append(dst, ']')
	}
	if resp.Degraded {
		dst = append(dst, ',')
		dst = appendIndent(dst, 1)
		dst = append(dst, `"degraded": true`...)
	}
	if resp.DegradedReason != "" {
		dst = append(dst, ',')
		dst = appendIndent(dst, 1)
		dst = append(dst, `"degraded_reason": `...)
		dst = xmltree.AppendJSONString(dst, resp.DegradedReason)
	}
	if explain != nil {
		// A debug path, so encoding/json renders the span tree; its names,
		// durations and string or integer attributes always marshal.
		tree, _ := json.MarshalIndent(explain, "  ", "  ")
		dst = append(dst, ',')
		dst = appendIndent(dst, 1)
		dst = append(dst, `"explain": `...)
		dst = append(dst, tree...)
	}
	dst = appendIndent(dst, 0)
	dst = append(dst, '}', '\n')
	return dst
}

// appendRankedQuery renders one queries[] object at depth 2 (keys at 3).
func appendRankedQuery(dst []byte, rq *core.RankedQuery, eng Backend) []byte {
	dst = append(dst, '{')
	dst = appendIndent(dst, 3)
	dst = append(dst, `"keywords": `...)
	dst = appendStringArray(dst, rq.Keywords, 3)
	dst = append(dst, ',')
	dst = appendIndent(dst, 3)
	dst = append(dst, `"dsim": `...)
	dst = appendJSONFloat(dst, rq.DSim)
	dst = append(dst, ',')
	dst = appendIndent(dst, 3)
	dst = append(dst, `"score": `...)
	dst = appendJSONFloat(dst, rq.Score)
	if rq.IsOriginal {
		dst = append(dst, ',')
		dst = appendIndent(dst, 3)
		dst = append(dst, `"is_original": true`...)
	}
	if len(rq.Steps) > 0 {
		dst = append(dst, ',')
		dst = appendIndent(dst, 3)
		dst = append(dst, `"steps": [`...)
		for i := range rq.Steps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 4)
			dst = appendStep(dst, &rq.Steps[i])
		}
		dst = appendIndent(dst, 3)
		dst = append(dst, ']')
	}
	dst = append(dst, ',')
	dst = appendIndent(dst, 3)
	dst = append(dst, `"results": `...)
	if len(rq.Results) == 0 {
		// The served format: an empty result list is always [], never
		// null (SearchBody materializes it as a non-nil slice).
		dst = append(dst, '[', ']')
	} else {
		dst = append(dst, '[')
		for i := range rq.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 4)
			dst = appendResult(dst, rq.Results[i], eng)
		}
		dst = appendIndent(dst, 3)
		dst = append(dst, ']')
	}
	dst = appendIndent(dst, 2)
	return append(dst, '}')
}

// appendResult renders one results[] object at depth 4 (keys at 5).
func appendResult(dst []byte, m refine.Match, eng Backend) []byte {
	dst = append(dst, '{')
	dst = appendIndent(dst, 5)
	// Dewey labels are digits and dots — JSON-safe by construction, so
	// the ID goes straight into the buffer with no escape scan.
	dst = append(dst, `"id": "`...)
	dst = m.ID.AppendText(dst)
	dst = append(dst, '"', ',')
	dst = appendIndent(dst, 5)
	dst = append(dst, `"type": `...)
	dst = m.Type.AppendPathJSON(dst)
	if eng != nil {
		// The snippet renders in its final form, a JSON literal, after
		// its key; a backend with no document takes the key back off.
		start := len(dst)
		dst = append(dst, ',')
		dst = appendIndent(dst, 5)
		dst = append(dst, `"snippet": `...)
		var ok bool
		if dst, ok = eng.AppendSnippetJSON(dst, m, snippetMax); !ok {
			dst = dst[:start]
		}
	}
	dst = appendIndent(dst, 4)
	return append(dst, '}')
}

// appendStep renders one refinement step as the JSON string of
// refine.Step.String() without materializing it: "delete <kw>" or the
// rule's arrow notation "<lhs> -><op> <rhs> (ds=<score>)".
func appendStep(dst []byte, st *refine.Step) []byte {
	dst = append(dst, '"')
	switch {
	case st.Delete != "":
		dst = append(dst, "delete "...)
		dst = xmltree.AppendJSONEscaped(dst, st.Delete)
	case st.Rule != nil:
		r := st.Rule
		for i, t := range r.LHS {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = xmltree.AppendJSONEscaped(dst, t)
		}
		dst = append(dst, ` -\u003e`...)
		dst = xmltree.AppendJSONEscaped(dst, r.Op.String())
		dst = append(dst, ' ')
		for i, t := range r.RHS {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = xmltree.AppendJSONEscaped(dst, t)
		}
		dst = append(dst, " (ds="...)
		dst = strconv.AppendFloat(dst, r.Score, 'g', -1, 64)
		dst = append(dst, ')')
	default:
		dst = append(dst, '?')
	}
	return append(dst, '"')
}

// appendStringArray renders a []string at the given depth (elements one
// deeper), with encoding/json's nil/empty distinction.
func appendStringArray(dst []byte, ss []string, depth int) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	if len(ss) == 0 {
		return append(dst, '[', ']')
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		dst = xmltree.AppendJSONString(dst, s)
	}
	dst = appendIndent(dst, depth)
	return append(dst, ']')
}

// appendIndent starts a new line at the given nesting depth (two spaces
// per level), matching json.Encoder.SetIndent("", "  ").
func appendIndent(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendJSONFloat appends f exactly as encoding/json does: shortest
// round-trip form, 'f' format except for magnitudes outside [1e-6, 1e21)
// which use 'e' with Go's exponent-digit cleanup.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
