package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/xmltree"
)

func testEngine(t *testing.T, cfg *core.Config) *core.Engine {
	t.Helper()
	// Two authors -> two document partitions, so a posting budget of 1 is
	// exhausted after the first partition and the walk degrades.
	doc, err := xmltree.ParseString(`
<bib>
  <author><publications>
    <paper><title>database systems</title><year>2003</year></paper>
    <paper><title>keyword search</title><year>2005</year></paper>
  </publications></author>
  <author><publications>
    <paper><title>database design</title><year>2006</year></paper>
  </publications></author>
</bib>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewFromDocument(doc, cfg)
}

// TestDegradedFieldsInJSON: a budget-constrained engine surfaces
// degraded/degraded_reason in the /search body; an unconstrained one omits
// both keys entirely (byte-compat with the pre-hardening format).
func TestDegradedFieldsInJSON(t *testing.T) {
	s := New(testEngine(t, &core.Config{PostingBudget: 1}), Config{})
	rec, body := get(t, s, "/search?q=databse")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %v", rec.Code, body)
	}
	if body["degraded"] != true {
		t.Errorf("degraded = %v, want true", body["degraded"])
	}
	if body["degraded_reason"] != "posting-budget" {
		t.Errorf("degraded_reason = %v", body["degraded_reason"])
	}

	sf := New(testEngine(t, nil), Config{})
	rec, _ = get(t, sf, "/search?q=databse")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "degraded") {
		t.Error("unconstrained response leaked a degraded key")
	}
}

// TestHealthzHardeningCounters: the new counters and limits are reported.
func TestHealthzHardeningCounters(t *testing.T) {
	s := New(testEngine(t, &core.Config{PostingBudget: 1}),
		Config{MaxInFlight: 7, Timeout: 1500 * time.Millisecond})
	if rec, _ := get(t, s, "/search?q=databse"); rec.Code != http.StatusOK {
		t.Fatalf("search failed: %d", rec.Code)
	}
	_, body := get(t, s, "/healthz")
	if body["degraded"].(float64) != 1 {
		t.Errorf("degraded = %v, want 1", body["degraded"])
	}
	if body["shed"].(float64) != 0 || body["panics"].(float64) != 0 {
		t.Errorf("shed/panics = %v/%v, want 0/0", body["shed"], body["panics"])
	}
	if body["max_inflight"].(float64) != 7 {
		t.Errorf("max_inflight = %v, want 7", body["max_inflight"])
	}
	if body["timeout_ms"].(float64) != 1500 {
		t.Errorf("timeout_ms = %v, want 1500", body["timeout_ms"])
	}
}

// TestHealthzExemptFromGate: health probes must answer even when every
// query slot is taken.
func TestHealthzExemptFromGate(t *testing.T) {
	s := New(testEngine(t, nil), Config{MaxInFlight: 1})
	s.pipe.gate <- struct{}{} // saturate the gate
	defer func() { <-s.pipe.gate }()
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz under saturation = %d %v", rec.Code, body)
	}
	// A query request at the same moment is shed.
	if rec, _ := get(t, s, "/search?q=database"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("query under saturation = %d, want 503", rec.Code)
	}
}
