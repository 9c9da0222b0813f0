package index

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func seg(docs ...string) *Index {
	b := NewBuilder()
	for _, d := range docs {
		add(b, strings.Fields(d))
	}
	return b.Build()
}

func TestMultiBasics(t *testing.T) {
	a := seg("x y", "y z")
	c := seg("z z z", "w")
	m := NewMulti(a, c)
	if m.NumDocs() != 4 || m.NumSegments() != 2 {
		t.Fatalf("docs=%d segments=%d", m.NumDocs(), m.NumSegments())
	}
	if m.DF("z") != 2 || m.DF("x") != 1 || m.DF("nope") != 0 {
		t.Fatalf("DF: z=%d x=%d", m.DF("z"), m.DF("x"))
	}
	// DocIDs remap: segment c's doc 0 becomes global doc 2.
	pl := postings(t, m, "z")
	want := []Posting{{Doc: 1, TF: 1}, {Doc: 2, TF: 3}}
	if !reflect.DeepEqual(pl, want) {
		t.Fatalf("postings(z) = %v, want %v", pl, want)
	}
	if m.DocLen(2) != 3 || m.DocLen(3) != 1 || m.DocLen(0) != 2 {
		t.Fatalf("doc lens: %v %v %v", m.DocLen(0), m.DocLen(2), m.DocLen(3))
	}
	if got := m.AvgDocLen(); got != (2+2+3+1)/4.0 {
		t.Fatalf("avg = %v", got)
	}
}

func TestMultiFlattensNesting(t *testing.T) {
	a, b, c := seg("x"), seg("y"), seg("z")
	m := NewMulti(NewMulti(a, b), c)
	if m.NumSegments() != 3 {
		t.Fatalf("segments = %d, want 3 (nested Multi flattened)", m.NumSegments())
	}
}

// TestMultiFromContinuesFold: a Multi built from the one it replaces —
// appended parts, a part replaced mid-list, a dropped leading part, nested
// input — has exactly NewMulti's statistics, AvgDocLen bits included, and
// leaves the Multi it continued untouched. Fractional document lengths
// (set directly: TFs are counts) make the float64 fold order-sensitive, so a fold resumed at the wrong boundary
// would show in the low bits.
func TestMultiFromContinuesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	parts := make([]Source, 6)
	for i := range parts {
		b := NewBuilder()
		for d := 0; d < 3+rng.Intn(40); d++ {
			doc := addCounts(b, map[string]float32{"a": float32(1 + rng.Intn(7)), "b": float32(1 + rng.Intn(3))})
			b.docLen[doc] += rng.Float32() / 3
		}
		parts[i] = b.Build()
	}
	check := func(step string, m *Multi, want ...Source) {
		t.Helper()
		ref := NewMulti(want...)
		if m.NumDocs() != ref.NumDocs() || math.Float64bits(m.AvgDocLen()) != math.Float64bits(ref.AvgDocLen()) {
			t.Fatalf("%s: docs %d avg %v, want %d %v", step, m.NumDocs(), m.AvgDocLen(), ref.NumDocs(), ref.AvgDocLen())
		}
		for d := 0; d < ref.NumDocs(); d++ {
			if m.DocLen(DocID(d)) != ref.DocLen(DocID(d)) {
				t.Fatalf("%s: DocLen(%d) differs", step, d)
			}
		}
	}
	m0 := NewMultiFrom(nil, parts[:3]...)
	check("fresh", m0, parts[:3]...)
	m1 := NewMultiFrom(m0, parts[:5]...)
	check("appended", m1, parts[:5]...)
	m2 := NewMultiFrom(m1, parts[0], parts[5], parts[2], parts[3])
	check("replaced mid-list", m2, parts[0], parts[5], parts[2], parts[3])
	m3 := NewMultiFrom(m2, parts[5], parts[2], parts[3])
	check("dropped leading part", m3, parts[5], parts[2], parts[3])
	m4 := NewMultiFrom(m3, NewMulti(parts[5], parts[2]), parts[3], parts[4])
	check("nested input", m4, parts[5], parts[2], parts[3], parts[4])
	check("continued Multi kept", m0, parts[:3]...)
	check("continued Multi kept", m1, parts[:5]...)
}
