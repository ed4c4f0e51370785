package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestTerm(t *testing.T) {
	for _, s := range []string{"xml", "a1", "2003", "database"} {
		if !Term(s) {
			t.Errorf("Term(%q) = false", s)
		}
	}
	for _, s := range []string{"", "XML", "data base", "on-line", "a.b"} {
		if Term(s) {
			t.Errorf("Term(%q) = true", s)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"XML":       "xml",
		"On-Line":   "online",
		"  data  ":  "data",
		"!!!":       "",
		"C++":       "c",
		"Näive":     "näive",
		"2003":      "2003",
		"DataBase!": "database",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestText(t *testing.T) {
	got := Text("Efficient LCA Computation, for XML-Trees (2003)")
	want := []string{"efficient", "lca", "computation", "for", "xml", "trees", "2003"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Text = %v, want %v", got, want)
	}
	if got := Text("   "); len(got) != 0 {
		t.Errorf("Text(blank) = %v", got)
	}
}

func TestQuery(t *testing.T) {
	got := Query("on, line  Data\tBASE")
	want := []string{"on", "line", "data", "base"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Query = %v, want %v", got, want)
	}
	if got := Query(",,,"); len(got) != 0 {
		t.Errorf("Query(commas) = %v", got)
	}
}

func TestTag(t *testing.T) {
	if got := Tag("InProceedings"); got != "inproceedings" {
		t.Errorf("Tag = %q", got)
	}
}

// Property: Normalize is idempotent and its output always satisfies Term
// (or is empty).
func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		if n == "" {
			return true
		}
		return Term(n) && Normalize(n) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every term produced by Text is a valid Term, and Text of a
// valid term is that term alone.
func TestPropertyTextTerms(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Text(s) {
			if !Term(term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if got := Text("database"); len(got) != 1 || got[0] != "database" {
		t.Errorf("Text(term) = %v", got)
	}
}

// Normalize cuts a term to MaxTermBytes at a rune boundary, and Text and
// Query cut the same word the same way.
func TestNormalizeCutsLongTerms(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{strings.Repeat("a", 300), strings.Repeat("a", MaxTermBytes)},
		{strings.Repeat("A", MaxTermBytes), strings.Repeat("a", MaxTermBytes)},
		{strings.Repeat("é", 200), strings.Repeat("é", MaxTermBytes/2)}, // 254 bytes: the next rune would cross
		{strings.Repeat("x", 254) + "日本", strings.Repeat("x", 254)},
		{strings.Repeat("-a", 300), strings.Repeat("a", 300)[:MaxTermBytes]},
	}
	for _, c := range cases {
		got := Normalize(c.in)
		if got != c.want || !utf8.ValidString(got) {
			t.Errorf("Normalize(%d bytes) = %d bytes, want %d", len(c.in), len(got), len(c.want))
		}
		if q := Query(c.in); len(q) != 1 || q[0] != got {
			t.Errorf("Query(%d bytes) = %d terms, not the cut term", len(c.in), len(q))
		}
	}
	if got := Text(strings.Repeat("b", 1000) + " c"); len(got) != 2 || got[0] != strings.Repeat("b", MaxTermBytes) {
		t.Errorf("Text cut the long word to %d bytes", len(got[0]))
	}
}
