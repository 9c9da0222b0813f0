package search

import (
	"testing"

	"newslink/internal/index"
)

// keepEven is a DocFilter keeping even DocIDs.
type keepEven struct{}

func (keepEven) Keep(d index.DocID) bool { return d%2 == 0 }

// TestLiveFilteredPassThrough: a mask delegates the Source interface
// unchanged — statistics keep counting hidden documents — tombstones and a
// filter on the same source compose to their conjunction, and masking with
// neither returns the source itself.
func TestLiveFilteredPassThrough(t *testing.T) {
	idx := build(kernelDocs(50, 5))
	dead := index.NewBitmap(50)
	dead.Set(10)
	lf := index.Masked(idx, dead, nil).(LiveSource)
	if lf.NumDocs() != idx.NumDocs() || lf.AvgDocLen() != idx.AvgDocLen() {
		t.Fatal("mask changed corpus statistics")
	}
	if lf.Live(10) || !lf.Live(11) {
		t.Fatal("Live mask wrong")
	}
	both := index.Masked(idx, dead, keepEven{}).(LiveSource)
	for d := index.DocID(0); d < 50; d++ {
		if want := d != 10 && d%2 == 0; both.Live(d) != want {
			t.Fatalf("tombstones+filter: Live(%d) = %v, want %v", d, both.Live(d), want)
		}
	}
	if onlyFilter := index.Masked(idx, nil, keepEven{}).(LiveSource); !onlyFilter.Live(10) || onlyFilter.Live(11) {
		t.Fatal("filter-only mask wrong")
	}
	if src := index.Masked(idx, nil, nil); src != index.Source(idx) {
		t.Fatal("a nil/nil mask must return the source itself")
	}
	if liveMask(idx) != nil {
		t.Fatal("an unmasked index must expose no live mask")
	}
}
