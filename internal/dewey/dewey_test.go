package dewey

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"0", "0.0", "0.1.2", "0.130.5", "123.456.789"}
	for _, s := range cases {
		id, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := id.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "a", "0.", ".0", "0..1", "0.-1", "0.4294967296"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestDepth(t *testing.T) {
	if d := Root().Depth(); d != 0 {
		t.Errorf("root depth = %d, want 0", d)
	}
	if d := MustParse("0.1.2").Depth(); d != 2 {
		t.Errorf("depth(0.1.2) = %d, want 2", d)
	}
}

func TestChildParent(t *testing.T) {
	r := Root()
	c := r.Child(3)
	if c.String() != "0.3" {
		t.Fatalf("child = %s", c)
	}
	p, ok := c.Parent()
	if !ok || !Equal(p, r) {
		t.Fatalf("parent(%s) = %s, %v", c, p, ok)
	}
	if _, ok := r.Parent(); ok {
		t.Error("root should have no parent")
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	// Document order of a small tree written out by hand.
	order := []string{"0", "0.0", "0.0.0", "0.0.1", "0.1", "0.1.0", "0.2", "0.10"}
	for i := range order {
		for j := range order {
			a, b := MustParse(order[i]), MustParse(order[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%s,%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAncestry(t *testing.T) {
	a := MustParse("0.1")
	b := MustParse("0.1.2.3")
	if !IsAncestor(a, b) || !IsAncestorOrSelf(a, b) {
		t.Error("0.1 should be ancestor of 0.1.2.3")
	}
	if IsAncestor(a, a) {
		t.Error("IsAncestor must be strict")
	}
	if !IsAncestorOrSelf(a, a) {
		t.Error("IsAncestorOrSelf must accept self")
	}
	if IsAncestorOrSelf(b, a) {
		t.Error("descendant is not ancestor")
	}
	if IsAncestorOrSelf(MustParse("0.12"), MustParse("0.1.2")) {
		t.Error("0.12 is not an ancestor of 0.1.2")
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"0.0.1", "0.0.2", "0.0"},
		{"0.0.1", "0.0.1", "0.0.1"},
		{"0.0.1", "0.0.1.5", "0.0.1"},
		{"0.1", "0.2", "0"},
		{"0", "0.9.9", "0"},
	}
	for _, c := range cases {
		got := LCA(MustParse(c.a), MustParse(c.b))
		if got.String() != c.want {
			t.Errorf("LCA(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if n := LCALen(MustParse(c.a), MustParse(c.b)); n != len(MustParse(c.want)) {
			t.Errorf("LCALen(%s,%s) = %d", c.a, c.b, n)
		}
	}
}

func TestPartition(t *testing.T) {
	if _, ok := Root().Partition(); ok {
		t.Error("root has no partition")
	}
	p, ok := MustParse("0.3.1.4").Partition()
	if !ok || p.String() != "0.3" {
		t.Errorf("partition = %s, %v", p, ok)
	}
}

func TestNextBoundsSubtree(t *testing.T) {
	d := MustParse("0.1.2")
	n := d.Next()
	if n.String() != "0.1.3" {
		t.Fatalf("next = %s", n)
	}
	desc := MustParse("0.1.2.9.9")
	if !(Compare(d, desc) < 0 && Compare(desc, n) < 0) {
		t.Error("descendant must fall in [d, d.Next())")
	}
	after := MustParse("0.1.3")
	if Compare(after, n) < 0 {
		t.Error("following sibling must not precede Next()")
	}
}

func TestBytesRoundtrip(t *testing.T) {
	cases := []string{"0", "0.0", "0.126", "0.127", "0.128", "0.4294967295", "0.1.2.3.4.5"}
	for _, s := range cases {
		id := MustParse(s)
		enc := id.Bytes()
		dec, n, err := FromBytes(enc)
		if err != nil {
			t.Fatalf("FromBytes(%s): %v", s, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d bytes for %s", n, len(enc), s)
		}
		if !Equal(dec, id) {
			t.Errorf("roundtrip %s -> %s", s, dec)
		}
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, _, err := FromBytes([]byte{0x01}); err == nil {
		t.Error("missing terminator should error")
	}
	if _, _, err := FromBytes([]byte{0xFF, 0x00}); err == nil {
		t.Error("truncated wide component should error")
	}
}

func randomID(r *rand.Rand) ID {
	id := ID{0}
	depth := r.Intn(8)
	for i := 0; i < depth; i++ {
		// Mix small and wide components to cross the encoding boundary.
		var c uint32
		switch r.Intn(3) {
		case 0:
			c = uint32(r.Intn(5))
		case 1:
			c = uint32(120 + r.Intn(16))
		default:
			c = r.Uint32()
		}
		id = append(id, c)
	}
	return id
}

// Property: the byte encoding preserves document order exactly.
func TestPropertyEncodingPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomID(r), randomID(r)
		want := Compare(a, b)
		got := bytes.Compare(a.Bytes(), b.Bytes())
		if got != want {
			t.Fatalf("order mismatch: Compare(%s,%s)=%d bytes=%d", a, b, want, got)
		}
	}
}

// Property: sorting by Compare equals sorting by encoded bytes.
func TestPropertySortAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ids := make([]ID, 300)
	for i := range ids {
		ids[i] = randomID(r)
	}
	byCompare := make([]ID, len(ids))
	copy(byCompare, ids)
	sort.Slice(byCompare, func(i, j int) bool { return Compare(byCompare[i], byCompare[j]) < 0 })
	byBytes := make([]ID, len(ids))
	copy(byBytes, ids)
	sort.Slice(byBytes, func(i, j int) bool {
		return bytes.Compare(byBytes[i].Bytes(), byBytes[j].Bytes()) < 0
	})
	for i := range ids {
		if !Equal(byCompare[i], byBytes[i]) {
			t.Fatalf("sort disagreement at %d: %s vs %s", i, byCompare[i], byBytes[i])
		}
	}
}

// Property: LCA is the unique common ancestor that is a descendant-or-self
// of every other common ancestor.
func TestPropertyLCA(t *testing.T) {
	f := func(x, y []uint8) bool {
		a, b := ID{0}, ID{0}
		for _, v := range x {
			a = append(a, uint32(v%4))
		}
		for _, v := range y {
			b = append(b, uint32(v%4))
		}
		l := LCA(a, b)
		if !IsAncestorOrSelf(l, a) || !IsAncestorOrSelf(l, b) {
			return false
		}
		// The child of l along a (if any) must not be an ancestor of b.
		if len(l) < len(a) {
			longer := a[:len(l)+1]
			if IsAncestorOrSelf(longer, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order consistent with Equal and antisymmetric.
func TestPropertyCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		a, b, c := randomID(r), randomID(r), randomID(r)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %s,%s", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %s,%s,%s", a, b, c)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	x := MustParse("0.1.2.3.4.5.6")
	y := MustParse("0.1.2.3.4.5.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(x, y)
	}
}

func BenchmarkBytes(b *testing.B) {
	x := MustParse("0.1.2.3.4.5.6")
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = x.Append(buf[:0])
	}
}
