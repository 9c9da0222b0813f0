package newslink

import (
	"fmt"
	"reflect"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
)

func TestAddAllMatchesSequentialAdd(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(19))
	arts := corpus.Generate(w, corpus.CNNLike(), 60, 19)
	var docs []Document
	for _, a := range arts {
		docs = append(docs, Document{ID: a.ID, Title: a.Title, Text: a.Text})
	}
	seq := New(w.Graph, DefaultConfig())
	for _, d := range docs {
		if err := seq.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Build(); err != nil {
		t.Fatal(err)
	}
	par := New(w.Graph, DefaultConfig())
	if err := par.AddAll(docs, 4); err != nil {
		t.Fatal(err)
	}
	if err := par.Build(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		arts[3].Text[:80],
		arts[40].Title,
		"clashes near the border",
	}
	for _, q := range queries {
		a, err := seq.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("parallel and sequential indexing disagree for %q:\n%v\nvs\n%v", q, a, b)
		}
	}
}

func TestAddAllWorkerEdgeCases(t *testing.T) {
	g, arts := corpus.Sample()
	var docs []Document
	for _, a := range arts {
		docs = append(docs, Document{ID: a.ID, Title: a.Title, Text: a.Text})
	}
	// workers <= 0 defaults to GOMAXPROCS; workers > len(docs) is clamped.
	for _, workers := range []int{0, 1, 100} {
		e := New(g, DefaultConfig())
		if err := e.AddAll(docs, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if e.NumDocs() != len(docs) {
			t.Fatalf("workers=%d: NumDocs=%d", workers, e.NumDocs())
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
	}
	// AddAll after Build opens a late segment; the new docs become
	// searchable on the next Search.
	e := New(g, DefaultConfig())
	if err := e.AddAll(docs[:1], 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAll(docs[1:], 2); err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != len(docs) {
		t.Fatalf("NumDocs = %d", e.NumDocs())
	}
}

func ExampleEngine_Search() {
	g, arts := corpus.Sample()
	e := New(g, DefaultConfig())
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			panic(err)
		}
	}
	if err := e.Build(); err != nil {
		panic(err)
	}
	res, err := e.Search("Taliban bombing in Lahore and Peshawar", 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res[0].Title)
	// Output: Bombing attack by Taliban in Pakistan
}
