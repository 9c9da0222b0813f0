package newslink

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/index"
)

// TestPublishDifferential drives a seeded history of every write that
// publishes a segment set — add, AddAll aborting at a duplicate, upsert,
// delete, refresh with policy merges, Compact, Save/Load and the drop of a
// fully-dead segment — and after every step compares the published set
// with what a from-scratch build over its segments gives: position of every
// ID ever used (tombstoned or never sealed: absent), the time column, and
// the NumDocs/AvgDocLen bits of both raw sources against a fresh
// index.NewMulti. Sets published earlier are held across the later
// publishes, which continue their time columns and length folds, and must
// never change; a reader goroutine walks the current set the whole time, so
// under -race (the CI resilience job) an append that wrote where a reader
// reads is reported too.
func TestPublishDifferential(t *testing.T) {
	g, arts := corpus.Sample()
	version := map[int]int{}
	doc := func(id int) Document {
		version[id]++
		return Document{
			ID:    id,
			Title: fmt.Sprintf("doc %d v%d", id, version[id]),
			Text:  arts[(id+version[id])%len(arts)].Text,
			Time:  int64(id * 7 % 50),
		}
	}
	e := New(g, DefaultConfig())
	live := map[int]bool{} // the model: live IDs, sealed or pending
	nextID := 0
	for ; nextID < 20; nextID++ {
		if err := e.Add(doc(nextID)); err != nil {
			t.Fatal(err)
		}
		live[nextID] = true
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}

	var cur atomic.Pointer[segmentSet]
	cur.Store(e.set.Load())
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := cur.Load()
			for pos, tm := range s.times {
				if d := s.doc(pos); d.Time != tm {
					t.Errorf("reader: times[%d] = %d, document %d has %d", pos, tm, d.ID, d.Time)
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()

	// check compares s with a from-scratch reference over its segments.
	check := func(step string, s *segmentSet) {
		t.Helper()
		ref := map[int]int{}
		var times []int64
		var texts, nodes []index.Source
		for si, sg := range s.segs {
			if s.bases[si] != len(times) {
				t.Fatalf("%s: segment %d based at %d, want %d", step, si, s.bases[si], len(times))
			}
			for j := range sg.numDocs() {
				d := sg.doc(j)
				if sg.times[j] != d.Time {
					t.Fatalf("%s: segment %d time column differs from its document %d", step, si, d.ID)
				}
				if sg.dead.Get(j) {
					continue
				}
				if _, dup := ref[d.ID]; dup {
					t.Fatalf("%s: ID %d live twice", step, d.ID)
				}
				ref[d.ID] = len(times) + j
			}
			times = append(times, sg.times...)
			texts, nodes = append(texts, sg.text), append(nodes, sg.node)
		}
		if !slices.Equal(s.times, times) {
			t.Fatalf("%s: times differ from the concatenated segment columns", step)
		}
		for id := 0; id < nextID; id++ {
			pos, ok := s.position(id)
			want, wantOK := ref[id]
			if ok != wantOK || pos != want {
				t.Fatalf("%s: position(%d) = %d, %v; want %d, %v", step, id, pos, ok, want, wantOK)
			}
		}
		for _, c := range []struct {
			name  string
			got   index.Source
			parts []index.Source
		}{{"text", s.rawText, texts}, {"node", s.rawNode, nodes}} {
			want := index.NewMulti(c.parts...)
			if c.got.NumDocs() != want.NumDocs() || math.Float64bits(c.got.AvgDocLen()) != math.Float64bits(want.AvgDocLen()) {
				t.Fatalf("%s: %s source has %d docs, avgdl %v; a fresh Multi %d, %v",
					step, c.name, c.got.NumDocs(), c.got.AvgDocLen(), want.NumDocs(), want.AvgDocLen())
			}
		}
	}
	// checkModel compares the engine's live IDs, sealed and pending, with
	// the model's.
	checkModel := func(step string) {
		t.Helper()
		got := map[int]bool{}
		s := e.set.Load()
		for id := 0; id < nextID; id++ {
			if _, ok := s.position(id); ok {
				got[id] = true
			}
		}
		e.mu.Lock()
		for id := range e.pendPos {
			if got[id] {
				t.Fatalf("%s: ID %d both pending and live", step, id)
			}
			got[id] = true
		}
		e.mu.Unlock()
		if len(got) != len(live) {
			t.Fatalf("%s: %d live IDs, model has %d", step, len(got), len(live))
		}
		for id := range live {
			if !got[id] {
				t.Fatalf("%s: model's ID %d not live", step, id)
			}
		}
	}

	type heldSet struct {
		step  string
		set   *segmentSet
		times []int64
		pos   []int // by ID below upto; -1 = absent
		upto  int
	}
	var held []heldSet
	hold := func(step string, s *segmentSet) {
		h := heldSet{step: step, set: s, times: slices.Clone(s.times), pos: make([]int, nextID), upto: nextID}
		for id := range h.pos {
			if p, ok := s.position(id); ok {
				h.pos[id] = p
			} else {
				h.pos[id] = -1
			}
		}
		held = append(held, h)
	}
	checkHeld := func(step string) {
		t.Helper()
		for _, h := range held {
			if !slices.Equal(h.set.times, h.times) {
				t.Fatalf("%s: times of the set held since %s changed", step, h.step)
			}
			for id := 0; id < nextID; id++ {
				want := -1
				if id < h.upto {
					want = h.pos[id]
				}
				got := -1
				if p, ok := h.set.position(id); ok {
					got = p
				}
				if got != want {
					t.Fatalf("%s: set held since %s: position(%d) = %d, was %d", step, h.step, id, got, want)
				}
			}
		}
	}
	pickLive := func(rng *rand.Rand) int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}

	rng := rand.New(rand.NewSource(28))
	var merges, mergedDocs int64
	countMerges := func() {
		merges += e.met.segmentMerges.Value()
		mergedDocs += e.met.segmentMergedDocs.Value()
	}
	drops := 0
	for step := 0; step < 240; step++ {
		var name string
		switch op := rng.Intn(20); {
		case op < 6:
			name = "add"
			if err := e.Add(doc(nextID)); err != nil {
				t.Fatal(err)
			}
			live[nextID] = true
			nextID++
		case op == 6:
			name = "addall-duplicate"
			dup := pickLive(rng)
			batch := []Document{doc(nextID), doc(nextID + 1), {ID: dup, Text: arts[0].Text}, doc(nextID + 2)}
			if err := e.AddAll(batch, 2); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("AddAll with live ID %d = %v, want ErrDuplicateID", dup, err)
			}
			live[nextID], live[nextID+1] = true, true
			nextID += 3
		case op < 9:
			name = "upsert"
			if err := e.Update(doc(pickLive(rng))); err != nil {
				t.Fatal(err)
			}
		case op < 12:
			name = "delete"
			id := pickLive(rng)
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		case op < 17:
			name = "refresh"
			e.Refresh()
		case op == 17:
			name = "drop-segment"
			e.Refresh()
			a, b := nextID, nextID+1
			if err := e.AddAll([]Document{doc(a), doc(b)}, 1); err != nil {
				t.Fatal(err)
			}
			nextID += 2
			e.Refresh()
			before := len(e.set.Load().segs)
			for _, id := range []int{a, b} {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if len(e.set.Load().segs) < before {
				drops++
			}
		case op == 18:
			name = "compact"
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			name = "save-load"
			dir := filepath.Join(t.TempDir(), "snap")
			if err := e.Save(dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(dir, g)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { loaded.Close() })
			countMerges()
			e = loaded
		}
		stepName := fmt.Sprintf("step %d (%s)", step, name)
		s := e.set.Load()
		cur.Store(s)
		check(stepName, s)
		checkModel(stepName)
		checkHeld(stepName)
		if step%12 == 0 {
			hold(stepName, s)
		}
	}
	countMerges()
	if merges == 0 || mergedDocs < merges || drops == 0 {
		t.Fatalf("history covered %d merges (%d documents rewritten) and %d segment drops; want some of each",
			merges, mergedDocs, drops)
	}
}
