package xmltree

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"xrefine/internal/dewey"
)

// refSnippet is the original body of Node.Snippet, kept verbatim as the
// reference AppendSnippet is held to. It panics on a negative max, so
// callers clamp first.
func refSnippet(n *Node, max int) string {
	txt := n.Subtext()
	if r := []rune(txt); len(r) > max {
		txt = string(r[:max]) + "…"
	}
	return fmt.Sprintf("%s:%s %q", n.Tag, n.ID, txt)
}

// snippetTree builds r(texts[0]) with children a(texts[1]) holding
// b(texts[2]), then c(texts[3]), so texts are read in index order.
func snippetTree(texts [4]string) *Node {
	root := &Node{Tag: "r", ID: dewey.ID{0}, Text: texts[0]}
	a := &Node{Tag: "a", ID: dewey.ID{0, 0}, Text: texts[1], Parent: root}
	b := &Node{Tag: "b", ID: dewey.ID{0, 0, 0}, Text: texts[2], Parent: a}
	c := &Node{Tag: "c", ID: dewey.ID{0, 1}, Text: texts[3], Parent: root}
	a.Children = []*Node{b}
	root.Children = []*Node{a, c}
	return root
}

// checkSnippet compares AppendSnippet and AppendSnippetJSON, on a non-empty
// dst, and Snippet against the reference for every node of the tree: the
// JSON form against encoding/json (HTML escaping on) of the reference.
func checkSnippet(t *testing.T, root *Node, max int) {
	t.Helper()
	clamped := max
	if clamped < 0 {
		clamped = 0
	}
	var visit func(n *Node)
	visit = func(n *Node) {
		want := refSnippet(n, clamped)
		if got := string(n.AppendSnippet([]byte("prefix"), max)); got != "prefix"+want {
			t.Fatalf("AppendSnippet(%s, %d) = %q, want %q", n.ID, max, got, "prefix"+want)
		}
		if got := n.Snippet(max); got != want {
			t.Fatalf("Snippet(%s, %d) = %q, want %q", n.ID, max, got, want)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(n.AppendSnippetJSON([]byte("prefix"), max)); got != "prefix"+string(wantJSON) {
			t.Fatalf("AppendSnippetJSON(%s, %d) = %s, want %s", n.ID, max, got, "prefix"+string(wantJSON))
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(root)
}

func TestAppendSnippetMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		texts [4]string
	}{
		{"ascii", [4]string{"one", "two three", "four", "five"}},
		{"empty between", [4]string{"one", "", "", "two"}},
		{"empty first", [4]string{"", "", "one", ""}},
		{"all empty", [4]string{"", "", "", ""}},
		{"multi-byte", [4]string{"naïve", "日本語テキスト", "😀 emoji", "ß"}},
		{"invalid utf-8", [4]string{"ok\xff", "a\xe2\x80", "\xc3", "tail\x80x"}},
		{"escapes", [4]string{`say "hi"`, `back\slash`, "<a> & b", "line\u2028sep\u2029"}},
		{"controls", [4]string{"tab\there", "nl\nx", "\x00\x7f", "\u00ad\ufeff\U000e0001"}},
		{"replacement char", [4]string{"\ufffd", "x\xef\xbf\xbd", "\xff\ufffd", "\u00e9"}},
		// The cut is learnt after an invalid byte was written: the text
		// renders again in cut mode.
		{"invalid before cut", [4]string{"a\xffb", "\xfe", "", strings.Repeat("cut ", 30)}},
		{"invalid in last text", [4]string{"one", "", "tw\x80o", "thr\xc3ee"}},
		{"html and quotes", [4]string{"<p>", "&amp;", "\"\\", ">"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := snippetTree(tc.texts)
			total := len([]rune(root.Subtext()))
			// At max == total the text ends on the budget's last rune, uncut.
			for _, max := range []int{-5, -1, 0, 1, 2, 3, total - 1, total, total + 1, 80, math.MaxInt} {
				checkSnippet(t, root, max)
			}
		})
	}
	// A tag is written as it is, and JSON-escaped in the JSON form.
	root := snippetTree([4]string{"one", "", "two", ""})
	root.Tag = "<\"t&\\>\xff"
	checkSnippet(t, root, 80)
}

// TestAppendSnippetRootAllocs pins the cost of a result high in the tree:
// a warm buffer renders the root's preview of a large subtree, in either
// form, with no allocation, because only the text up to the cut is read.
func TestAppendSnippetRootAllocs(t *testing.T) {
	root := &Node{Tag: "bib", ID: dewey.ID{0}}
	for i := 0; i < 2000; i++ {
		root.Children = append(root.Children, &Node{
			Tag: "title", ID: dewey.ID{0, uint32(i)}, Parent: root,
			// Quoted, escaped and invalid bytes, and a cut: every path.
			Text: strings.Repeat("keyword <query> \"refinement\" é\xff ", 4),
		})
	}
	buf := root.AppendSnippet(nil, 80)
	if got, want := string(buf), refSnippet(root, 80); got != want {
		t.Fatalf("AppendSnippet = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = root.AppendSnippet(buf[:0], 80)
	}); allocs != 0 {
		t.Errorf("AppendSnippet on the root = %.1f allocs with a warm buffer, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = root.AppendSnippetJSON(buf[:0], 80)
	}); allocs != 0 {
		t.Errorf("AppendSnippetJSON on the root = %.1f allocs with a warm buffer, want 0", allocs)
	}
}

func FuzzAppendSnippet(f *testing.F) {
	f.Add("one", "two", "three", "four", 0)
	f.Add("one", "", "", "two", 1)
	f.Add("naïve", "日本語", "", "😀", 4)
	f.Add("ok\xff", "a\xe2\x80", "\xc3", "x\x80", 3)
	f.Add("ok\xff", "a\xe2\x80", "\xc3", "x\x80", 80)
	f.Add(`"q"`, `\`, "<>&", " ", 5)
	f.Add("", "", "", "", -1)
	f.Fuzz(func(t *testing.T, a, b, c, d string, max int) {
		checkSnippet(t, snippetTree([4]string{a, b, c, d}), max)
	})
}
