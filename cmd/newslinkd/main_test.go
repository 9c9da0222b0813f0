package main

import (
	"errors"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/server"
)

func TestBuildEngineSample(t *testing.T) {
	e := sampleEngine(t)
	if e.NumDocs() == 0 {
		t.Fatal("no documents")
	}
	ts := httptest.NewServer(server.New(e).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("health status %d", resp.StatusCode)
	}
}

func TestBuildEngineSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap")
	// First run: indexes and saves.
	e1, err := buildEngine("", "", 0.2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(snap, "meta.json")); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// Second run: loads the snapshot.
	e2, err := buildEngine("", "", 0.2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if e1.NumDocs() != e2.NumDocs() {
		t.Fatalf("docs %d vs %d", e1.NumDocs(), e2.NumDocs())
	}
	q := "Taliban bombing in Lahore"
	a, err := e1.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("snapshot engine disagrees: %v vs %v", a, b)
	}
}

// writeInputs writes a small world's graph and a 20-article corpus into
// dir, as the -kg and -corpus files.
func writeInputs(t *testing.T, dir string) (kgPath, corpusPath string) {
	t.Helper()
	w := kg.Generate(kg.Config{Seed: 1, Countries: 3, ProvincesPerCountry: 2,
		CitiesPerProvince: 2, PersonsPerCountry: 4, OrgsPerCountry: 5, EventsPerCountry: 5})
	arts := corpus.Generate(w, corpus.CNNLike(), 20, 1)
	kgPath = filepath.Join(dir, "kg.tsv")
	f, err := os.Create(kgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := kg.Write(f, w.Graph); err != nil {
		t.Fatal(err)
	}
	f.Close()
	corpusPath = filepath.Join(dir, "corpus.jsonl")
	cf, err := os.Create(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteJSONL(cf, arts); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	return kgPath, corpusPath
}

func TestBuildEngineFileInputs(t *testing.T) {
	kgPath, corpusPath := writeInputs(t, t.TempDir())
	e, err := buildEngine(kgPath, corpusPath, 0.5, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != 20 {
		t.Fatalf("docs = %d", e.NumDocs())
	}
	// Unpaired flags fail.
	if _, err := buildEngine(kgPath, "", 0.2, ""); err == nil {
		t.Fatal("unpaired -kg must fail")
	}
	if _, err := buildEngine("/nonexistent", corpusPath, 0.2, ""); err == nil {
		t.Fatal("missing kg must fail")
	}
}

// TestBuildEngineSnapshotSkipsCorpus: a start whose -snapshot exists loads
// it without reading -corpus, so it succeeds with the corpus file gone;
// the -kg/-corpus pairing is still checked. The snapshot is found parked
// at <snap>.old, as a crash between an install's two renames leaves it,
// and put back.
func TestBuildEngineSnapshotSkipsCorpus(t *testing.T) {
	dir := t.TempDir()
	kgPath, corpusPath := writeInputs(t, dir)
	snap := filepath.Join(dir, "snap")
	if _, err := buildEngine(kgPath, corpusPath, 0.5, snap); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(os.Remove(corpusPath), os.Rename(snap, snap+".old")); err != nil {
		t.Fatal(err)
	}
	e, err := buildEngine(kgPath, corpusPath, 0.5, snap)
	if err != nil {
		t.Fatalf("loading the snapshot read the removed corpus: %v", err)
	}
	if e.NumDocs() != 20 {
		t.Fatalf("docs = %d", e.NumDocs())
	}
	if _, err := buildEngine(kgPath, "", 0.5, snap); err == nil {
		t.Fatal("unpaired -kg must fail even with a snapshot")
	}
}

// TestBuildEngineOnDisk: a start over an existing snapshot serves it from
// the snapshot's files, and Close releases them.
func TestBuildEngineOnDisk(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap")
	built, err := buildEngine("", "", 0.2, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	e, err := buildEngine("", "", 0.2, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search("Taliban bombing in Lahore", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 1 {
		t.Fatalf("search over the loaded snapshot: %+v", res)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search("Taliban bombing in Lahore", 2); !errors.Is(err, newslink.ErrClosed) {
		t.Fatalf("search after Close: %v, want ErrClosed", err)
	}
}

// TestDebugHandler exercises the -debug-addr surface: pprof endpoints and
// both metric expositions, served off the engine's registry.
func TestDebugHandler(t *testing.T) {
	e := sampleEngine(t)
	if _, err := e.Search("Taliban bombing in Lahore", 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(debugHandler(e.Metrics()))
	defer ts.Close()
	expectDebugSurface(t, ts.URL, map[string]string{
		"/debug/pprof/":    "profiles",
		"/v1/metrics":      "newslink_searches_total",
		"/v1/metrics/prom": "# TYPE newslink_search_seconds histogram",
	})
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := parseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("parseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLogLevel("loud"); err == nil {
		t.Fatal("invalid level must error")
	}
}
