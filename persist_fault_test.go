package newslink

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/faults"
)

// copyDir clones a flat snapshot directory into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// segArtifact locates the (single) per-segment artifact file with the
// given suffix inside a snapshot directory.
func segArtifact(t *testing.T, dir, suffix string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*."+suffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no seg-*.%s artifact in %s (err=%v)", suffix, dir, err)
	}
	return matches[0]
}

// editMeta rewrites a snapshot's meta.json through edit, field by field.
func editMeta(t *testing.T, dir string, edit func(m map[string]json.RawMessage)) {
	t.Helper()
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteArtifact replaces the snapshot's (single) artifact with the given
// suffix by fn of its bytes and records the new bytes' checksum, so the
// damage gets past verification and reaches the decoder.
func rewriteArtifact(t *testing.T, dir, suffix string, fn func([]byte) []byte) {
	t.Helper()
	path := segArtifact(t, dir, suffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := checksumFile(path, make([]byte, copyBufSize))
	if err != nil {
		t.Fatal(err)
	}
	editMeta(t, dir, func(m map[string]json.RawMessage) {
		var sums map[string]string
		if err := json.Unmarshal(m["checksums"], &sums); err != nil {
			t.Fatal(err)
		}
		sums[filepath.Base(path)] = sum
		if m["checksums"], err = json.Marshal(sums); err != nil {
			t.Fatal(err)
		}
	})
}

// openUnder counts what this process holds on files under dir: open
// descriptors and memory mappings.
func openUnder(t *testing.T, dir string) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	mapped, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot list mappings: %v", err)
	}
	// t.TempDir may sit behind a symlink; descriptors and mappings name
	// the real path.
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, real+"/") {
			fds++
		}
	}
	for _, line := range strings.Split(string(mapped), "\n") {
		if strings.Contains(line, " "+real+"/") {
			maps++
		}
	}
	return fds, maps
}

// TestLoadCorruptionTable drives Load and LoadSegments over
// every corruption class the snapshot format defends against: truncation,
// a single bit flip, and outright removal of each binary artifact, a
// missing checksum, a documents artifact whose checksum matches but whose
// count or offsets do not, plus version skew — a retired version 6
// included — and a torn meta.json. Each case must return the matching
// typed error, never a (half-built) engine, and leave no descriptor open
// and nothing mapped on the snapshot.
func TestLoadCorruptionTable(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	pristine := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(pristine); err != nil {
		t.Fatal(err)
	}

	artifacts := []string{"text.idx", "node.idx", "docs.bin"}
	type tc struct {
		name    string
		mutate  func(t *testing.T, dir string)
		wantErr error
		names   string // file the error message must name, if any
	}
	var cases []tc
	for _, a := range artifacts {
		cases = append(cases,
			tc{"truncate/" + a, func(t *testing.T, dir string) {
				path := segArtifact(t, dir, a)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}, ErrSnapshotCorrupt, ""},
			tc{"bitflip/" + a, func(t *testing.T, dir string) {
				path := segArtifact(t, dir, a)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}, ErrSnapshotCorrupt, ""},
			tc{"missing/" + a, func(t *testing.T, dir string) {
				if err := os.Remove(segArtifact(t, dir, a)); err != nil {
					t.Fatal(err)
				}
			}, ErrSnapshotCorrupt, ""},
		)
	}
	// docsOffsets returns the offset column of a documents artifact,
	// aliasing data, and the length of its text area.
	docsOffsets := func(data []byte) ([]byte, uint64) {
		l, err := parseDocsHeader(data, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return data[l.offs:l.area], uint64(l.areaLen)
	}
	cases = append(cases,
		tc{"version-skew", func(t *testing.T, dir string) {
			editMeta(t, dir, func(m map[string]json.RawMessage) {
				m["version"] = json.RawMessage("99")
			})
		}, ErrSnapshotVersion, ""},
		// A snapshot from before the block-compressed index format (v3):
		// the version gate must reject it before any index bytes are read,
		// so the pre-PR on-disk layout never reaches the parser.
		tc{"pre-block-format-version", func(t *testing.T, dir string) {
			editMeta(t, dir, func(m map[string]json.RawMessage) {
				m["version"] = json.RawMessage("2")
			})
		}, ErrSnapshotVersion, ""},
		// Version 6, the last format with an emb.bin per segment.
		tc{"v6-meta", func(t *testing.T, dir string) {
			editMeta(t, dir, func(m map[string]json.RawMessage) {
				m["version"] = json.RawMessage("6")
			})
		}, ErrSnapshotVersion, "version 6,"},
		tc{"torn-meta", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"version": 2, "conf`), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrSnapshotCorrupt, ""},
		tc{"missing-checksum", func(t *testing.T, dir string) {
			editMeta(t, dir, func(m map[string]json.RawMessage) {
				m["checksums"] = json.RawMessage("{}")
			})
		}, ErrSnapshotCorrupt, ""},
		tc{"missing-checksum/docs.bin", func(t *testing.T, dir string) {
			name := filepath.Base(segArtifact(t, dir, "docs.bin"))
			editMeta(t, dir, func(m map[string]json.RawMessage) {
				var sums map[string]string
				if err := json.Unmarshal(m["checksums"], &sums); err != nil {
					t.Fatal(err)
				}
				delete(sums, name)
				var err error
				if m["checksums"], err = json.Marshal(sums); err != nil {
					t.Fatal(err)
				}
			})
		}, ErrSnapshotCorrupt, "no checksum for seg-"},
		// Documents artifacts that pass verification but disagree with
		// the index, or with themselves.
		tc{"count-mismatch/docs.bin", func(t *testing.T, dir string) {
			rewriteArtifact(t, dir, "docs.bin", func(data []byte) []byte {
				docs := readDocsIn(t, data)
				return appendDocs(nil, docs[:len(docs)-1])
			})
		}, ErrSnapshotCorrupt, "docs.bin: segment"},
		tc{"offset-past-area/docs.bin", func(t *testing.T, dir string) {
			rewriteArtifact(t, dir, "docs.bin", func(data []byte) []byte {
				col, areaLen := docsOffsets(data)
				binary.LittleEndian.PutUint64(col[3*8:], areaLen+1)
				return data
			})
		}, ErrSnapshotCorrupt, "past the"},
		tc{"non-monotone-offsets/docs.bin", func(t *testing.T, dir string) {
			rewriteArtifact(t, dir, "docs.bin", func(data []byte) []byte {
				// Document 0's text would start after document 1's title.
				col, _ := docsOffsets(data)
				binary.LittleEndian.PutUint64(col[1*8:], binary.LittleEndian.Uint64(col[2*8:])+1)
				return data
			})
		}, ErrSnapshotCorrupt, "below the"},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			copyDir(t, pristine, dir)
			c.mutate(t, dir)
			got, err := Load(dir, g)
			if got != nil {
				got.Close()
				t.Fatal("Load returned an engine from a corrupt snapshot")
			}
			if !errors.Is(err, c.wantErr) || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("Load error = %v, want %v naming %q", err, c.wantErr, c.names)
			}
			if fds, maps := openUnder(t, dir); fds+maps != 0 {
				t.Fatalf("Load left %d descriptors and %d mappings on the snapshot", fds, maps)
			}
			// A shard worker's load fails the same way.
			m, err := ReadManifest(dir)
			if err == nil {
				_, err = LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
			}
			if !errors.Is(err, c.wantErr) || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("LoadSegments error = %v, want %v naming %q", err, c.wantErr, c.names)
			}
			if fds, maps := openUnder(t, dir); fds+maps != 0 {
				t.Fatalf("LoadSegments left %d descriptors and %d mappings on the snapshot", fds, maps)
			}
		})
	}
}

// truncateArtifacts empties, in place, every snapshot file in dir whose
// name ends in suffix — a disk going bad under a loaded engine after the
// load-time checksum pass, which its mappings fault on.
func truncateArtifacts(t *testing.T, dir, suffix string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*."+suffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no seg-*.%s under %s (%v)", suffix, dir, err)
	}
	for _, path := range matches {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnDiskReadErrorNeverBecomesEmpty: once the files behind a loaded
// engine's mappings are truncated, every consumer of postings must report
// the fault as an error. None may turn it into an empty answer: not a filtered
// search's entity allowlist, not Compact or a policy merge (which would
// publish a segment without postings and answer every later search with
// zero hits), not Save.
func TestOnDiskReadErrorNeverBecomesEmpty(t *testing.T) {
	g, arts := corpus.Sample()
	const query = "Taliban bombing in Lahore"
	// load saves the sample engine plus extra one-document segments and
	// loads it back.
	load := func(t *testing.T, extra int) (*Engine, string) {
		dir := savedWithSegments(t, extra)
		disk, err := Load(dir, g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		if disk.NumSegments() != extra+1 {
			t.Fatalf("loaded %d segments, want %d", disk.NumSegments(), extra+1)
		}
		if res, err := disk.Search(query, 5); err != nil || len(res) == 0 {
			t.Fatalf("healthy search: %v, %v", res, err)
		}
		return disk, dir
	}

	disk, dir := load(t, 1)
	// Node index gone: a text-only (β = 0) search never touches it except
	// to build the entity allowlist, which must fail the request rather
	// than match nothing.
	truncateArtifacts(t, dir, "node.idx")
	beta := 0.0
	faceted := Query{Text: query, K: 5, Beta: &beta, Entities: []string{"Taliban"}}
	if res, err := disk.SearchContext(context.Background(), faceted); err == nil {
		t.Fatalf("entity-filtered search over an unreadable node index returned %v, no error", res)
	}
	terms := disk.EntityTerms(faceted.Entities)
	if _, _, err := disk.FilteredSources(0, 0, terms); err == nil {
		t.Fatal("FilteredSources over an unreadable node index returned no error")
	}
	if _, err := disk.ExplainQueryContext(context.Background(), faceted, 1, 3); err == nil {
		t.Fatal("entity-filtered Explain over an unreadable node index returned no error")
	}
	if err := disk.Compact(); err == nil {
		t.Fatal("Compact over unreadable segments returned no error")
	}
	if disk.NumSegments() != 2 {
		t.Fatalf("failed Compact left %d segments published, want the 2 it started from", disk.NumSegments())
	}
	if err := disk.Save(filepath.Join(t.TempDir(), "resave")); err == nil {
		t.Fatal("Save over unreadable segments returned no error")
	}
	truncateArtifacts(t, dir, "text.idx")
	if res, err := disk.Search(query, 5); err == nil {
		t.Fatalf("search over unreadable segments returned %v, no error", res)
	}

	// The tiered policy on refresh has no error return: the mergeFactor-th
	// adjacent segment of tier segTier(1) makes a run, the merge fails, and
	// the run stays unmerged (and exact) with the failure counted. The
	// sample segment joins the run only if it shares that tier.
	late := mergeFactor - 1
	if segTier(len(arts)) == segTier(1) {
		late--
	}
	disk, dir = load(t, late)
	truncateArtifacts(t, dir, "text.idx")
	if err := disk.Add(Document{ID: 9400, Title: "later", Text: "A later bulletin."}); err != nil {
		t.Fatal(err)
	}
	disk.Refresh()
	if disk.NumSegments() != late+2 {
		t.Fatalf("failed policy merge left %d segments, want %d unmerged", disk.NumSegments(), late+2)
	}
	if n := disk.met.segmentMergeErrors.Value(); n != 1 {
		t.Fatalf("newslink_segment_merge_errors_total = %d, want 1", n)
	}
	if n := disk.met.segmentMerges.Value(); n != 0 {
		t.Fatalf("newslink_segment_merges_total = %d after a failed merge, want 0", n)
	}
	if n := disk.met.segmentMergedDocs.Value(); n != 0 {
		t.Fatalf("newslink_segment_merged_docs_total = %d after a failed merge, want 0", n)
	}

	storedFieldReadErrors(t)
}

// savedWithSegments saves the sample engine plus extra one-document
// segments and returns the snapshot directory.
func savedWithSegments(t *testing.T, extra int) string {
	t.Helper()
	e := sampleEngine(t, DefaultConfig())
	for i := 0; i < extra; i++ {
		if err := e.Add(Document{ID: 9300 + i, Title: "late", Text: "A late bulletin about the Taliban in Lahore."}); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCloseReleasesEveryMapping: a loaded engine maps the three artifacts
// of each segment and holds no descriptor on them. The segments a merge
// retires — by Compact, or by the tiered policy on refresh — stay mapped
// while the engine is open, and Close releases every mapping, theirs
// included.
func TestCloseReleasesEveryMapping(t *testing.T) {
	g, arts := corpus.Sample()
	// The policy case: the mergeFactor-th adjacent segment of tier
	// segTier(1) makes a run; the sample segment joins it only if it
	// shares that tier.
	late := mergeFactor - 1
	if segTier(len(arts)) == segTier(1) {
		late--
	}
	for _, c := range []struct {
		name  string
		extra int
		merge func(e *Engine) error
	}{
		{"compact", 2, (*Engine).Compact},
		{"policy-merge", late, func(e *Engine) error {
			if err := e.Add(Document{ID: 9400, Title: "later", Text: "A later bulletin."}); err != nil {
				return err
			}
			e.Refresh()
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := savedWithSegments(t, c.extra)
			e, err := Load(dir, g)
			if err != nil {
				t.Fatal(err)
			}
			loaded := e.NumSegments()
			if fds, maps := openUnder(t, dir); fds != 0 || maps != 3*loaded {
				t.Fatalf("loaded engine holds %d descriptors and %d mappings, want 0 and %d", fds, maps, 3*loaded)
			}
			if err := c.merge(e); err != nil {
				t.Fatal(err)
			}
			if n := e.NumSegments(); n >= loaded {
				t.Fatalf("%s left %d segments of the %d loaded: nothing retired", c.name, n, loaded)
			}
			if fds, maps := openUnder(t, dir); fds != 0 || maps != 3*loaded {
				t.Fatalf("after %s: %d descriptors and %d mappings, want 0 and %d", c.name, fds, maps, 3*loaded)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if fds, maps := openUnder(t, dir); fds+maps != 0 {
				t.Fatalf("closed engine still holds %d descriptors and %d mappings", fds, maps)
			}
		})
	}
}

// TestReadsAfterCloseFail: once Close has run, every read — and Save and
// Compact, which read too — fails with ErrClosed, so none touches a
// released mapping.
func TestReadsAfterCloseFail(t *testing.T) {
	g, arts := corpus.Sample()
	e, err := Load(savedWithSegments(t, 1), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	const query = "Taliban bombing in Lahore"
	id := arts[1].ID
	_, searchErr := e.Search(query, 5)
	_, relatedErr := e.Related(id, 5)
	_, explainErr := e.Explain(query, id, 3)
	_, dotErr := e.ExplainDOT(query, id, "t")
	_, docErr := e.DocAt(0)
	_, _, sourcesErr := e.Sources()
	for op, err := range map[string]error{
		"Search":     searchErr,
		"Related":    relatedErr,
		"Explain":    explainErr,
		"ExplainDOT": dotErr,
		"DocAt":      docErr,
		"Sources":    sourcesErr,
		"Save":       e.Save(filepath.Join(t.TempDir(), "resave")),
		"Compact":    e.Compact(),
		"Add":        e.Add(Document{ID: 9500, Text: "After the close."}),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", op, err)
		}
	}
}

// storedFieldReadErrors is TestOnDiskReadErrorNeverBecomesEmpty's
// guarantee for the stored fields a loaded engine — Load, and LoadRouted,
// the cluster router's engine — reads in place from its mapped documents
// artifact (docs.bin): Search and DocAt read it, and Related, Explain and
// ExplainDOT too, to re-derive the source document's embedding from its
// text. Truncated under the engine, every request that reads the artifact
// fails, Save to a fresh directory included, and every other request
// answers exactly as before. Removed under it, nothing changes at all: the
// mapping keeps the file's contents, so the engine keeps answering
// exactly, and re-saves byte for byte.
//
// Then nothing the engine answered may alias its mappings: with every
// artifact truncated and the engine closed, the answers taken while it was
// healthy still read back equal to their copies. A mapped string that
// escaped a request would fault here, outside any guard, and crash the
// test.
func storedFieldReadErrors(t *testing.T) {
	g, arts := corpus.Sample()
	const query = "Taliban bombing in Lahore"
	id := arts[1].ID
	type answers struct {
		search  []Result
		related []Result
		explain Explanation
		dot     string
		doc     Document
	}
	ask := func(e *Engine) (a answers, errs map[string]error) {
		errs = map[string]error{}
		a.search, errs["Search"] = e.Search(query, 5)
		a.related, errs["Related"] = e.Related(id, 5)
		a.explain, errs["Explain"] = e.Explain(query, id, 3)
		a.dot, errs["ExplainDOT"] = e.ExplainDOT(query, id, "t")
		a.doc, errs["DocAt"] = e.DocAt(1)
		return a, errs
	}
	cloneResults := func(rs []Result) []Result {
		out := make([]Result, len(rs))
		for i, r := range rs {
			out[i] = Result{ID: r.ID, Title: strings.Clone(r.Title), Score: r.Score, Snippet: strings.Clone(r.Snippet)}
		}
		return out
	}
	cloneStrings := func(ss []string) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = strings.Clone(s)
		}
		return out
	}
	clone := func(a answers) answers {
		c := answers{search: cloneResults(a.search), related: cloneResults(a.related), dot: strings.Clone(a.dot), doc: a.doc}
		c.explain.SharedEntities = cloneStrings(a.explain.SharedEntities)
		for _, p := range a.explain.Paths {
			c.explain.Paths = append(c.explain.Paths, Path{Nodes: cloneStrings(p.Nodes), Relations: cloneStrings(p.Relations), Rendered: strings.Clone(p.Rendered)})
		}
		c.doc.Title, c.doc.Text = strings.Clone(a.doc.Title), strings.Clone(a.doc.Text)
		return c
	}
	readers := map[string][]string{
		"docs.bin": {"Search", "Related", "Explain", "ExplainDOT", "DocAt"},
	}
	loaders := map[string]func(t *testing.T, dir string) *Engine{
		"Load": func(t *testing.T, dir string) *Engine {
			e, err := Load(dir, g)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"LoadRouted": func(t *testing.T, dir string) *Engine {
			m, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			shard, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shard.Close() })
			e, err := LoadRouted(dir, g, localTraverse(shard))
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	}
	for lname, load := range loaders {
		for artifact, reads := range readers {
			for _, damage := range []string{"truncated", "removed"} {
				t.Run(lname+"/"+damage+"/"+artifact, func(t *testing.T) {
					pristine, dir := filepath.Join(t.TempDir(), "pristine"), filepath.Join(t.TempDir(), "snap")
					if err := sampleEngine(t, DefaultConfig()).Save(pristine); err != nil {
						t.Fatal(err)
					}
					copyDir(t, pristine, dir)
					e := load(t, dir)
					defer e.Close()
					want, errs := ask(e)
					for op, err := range errs {
						if err != nil {
							t.Fatalf("healthy %s: %v", op, err)
						}
					}
					if len(want.search) == 0 || len(want.related) == 0 || len(want.explain.Paths) == 0 || want.dot == "" {
						t.Fatalf("healthy answers leave a read unexercised: %+v", want)
					}
					kept := clone(want)
					if damage == "truncated" {
						truncateArtifacts(t, dir, artifact)
					} else if err := os.Remove(segArtifact(t, dir, artifact)); err != nil {
						t.Fatal(err)
					}
					got, errs := ask(e)
					failed := map[string]bool{}
					for _, op := range reads {
						failed[op] = damage == "truncated"
					}
					for op, err := range errs {
						if (err != nil) != failed[op] {
							t.Errorf("%s after the artifact was %s: error %v, want one: %v", op, damage, err, failed[op])
						}
					}
					for op, same := range map[string]bool{
						"Search":     reflect.DeepEqual(got.search, want.search),
						"Related":    reflect.DeepEqual(got.related, want.related),
						"Explain":    reflect.DeepEqual(got.explain, want.explain),
						"ExplainDOT": got.dot == want.dot,
						"DocAt":      reflect.DeepEqual(got.doc, want.doc),
					} {
						if !failed[op] && !same {
							t.Errorf("%s after the artifact was %s answers differently", op, damage)
						}
					}
					fresh := filepath.Join(t.TempDir(), "resave")
					err := e.Save(fresh)
					switch {
					case damage == "truncated" && err == nil:
						t.Fatal("Save over a truncated artifact returned no error")
					case damage == "removed" && err != nil:
						t.Fatalf("Save over a removed (still mapped) artifact: %v", err)
					case damage == "removed":
						names, err := filepath.Glob(filepath.Join(pristine, "*"))
						if err != nil {
							t.Fatal(err)
						}
						for _, path := range names {
							a, err := os.ReadFile(path)
							if err != nil {
								t.Fatal(err)
							}
							if b, err := os.ReadFile(filepath.Join(fresh, filepath.Base(path))); err != nil || !bytes.Equal(a, b) {
								t.Fatalf("re-saved %s differs from the saved one (%v)", filepath.Base(path), err)
							}
						}
					}

					paths, err := filepath.Glob(filepath.Join(dir, "seg-*"))
					if err != nil {
						t.Fatal(err)
					}
					for _, path := range paths {
						if err := os.Truncate(path, 0); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(want, kept) {
						t.Fatal("answers taken before the damage changed after every artifact was truncated")
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, kept) {
						t.Fatal("answers taken before the damage changed after Close")
					}
				})
			}
		}
	}
}

// parentEntries lists the names in the snapshot's parent directory, the
// debris check of the Save failure tests.
func parentEntries(t *testing.T, parent string) []string {
	t.Helper()
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestSaveRenameFaultKeepsPreviousSnapshot: a failure at the install
// rename must leave the previously saved snapshot fully loadable and no
// staging or parking debris in the parent directory.
func TestSaveRenameFaultKeepsPreviousSnapshot(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	parent := t.TempDir()
	dir := filepath.Join(parent, "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	before, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	wantDocs := before.NumDocs()
	wantRes, err := before.Search("Taliban bombing in Lahore", 3)
	if err != nil {
		t.Fatal(err)
	}

	// Change the engine so a successful save would alter the snapshot,
	// then fail the install.
	if err := e.Add(Document{ID: 4242, Title: "late", Text: "A late bulletin about Lahore."}); err != nil {
		t.Fatal(err)
	}
	errInjected := errors.New("injected rename failure")
	faults.Arm(faults.New().Fail(faults.SaveRename, errInjected))
	defer faults.Disarm()
	if err := e.Save(dir); !errors.Is(err, errInjected) {
		t.Fatalf("Save under rename fault = %v, want the injected error", err)
	}
	faults.Disarm()

	if got := parentEntries(t, parent); len(got) != 1 || got[0] != "snap" {
		t.Fatalf("staging debris left behind: %v", got)
	}
	after, err := Load(dir, g)
	if err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	if after.NumDocs() != wantDocs {
		t.Fatalf("previous snapshot changed: %d docs, want %d", after.NumDocs(), wantDocs)
	}
	gotRes, err := after.Search("Taliban bombing in Lahore", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("previous snapshot ranking changed:\n%v\nvs\n%v", gotRes, wantRes)
	}
}

// TestSaveWriteFaultCleansUp: a failure while writing any artifact must
// abort the save, leave no staging directory, and keep a pre-existing
// snapshot untouched.
func TestSaveWriteFaultCleansUp(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	errInjected := errors.New("injected write failure")

	// Fresh target: nothing must appear at all.
	parent := t.TempDir()
	dir := filepath.Join(parent, "snap")
	faults.Arm(faults.New().FailN(faults.SaveWrite, 1, errInjected))
	if err := e.Save(dir); !errors.Is(err, errInjected) {
		t.Fatalf("Save under write fault = %v", err)
	}
	faults.Disarm()
	if got := parentEntries(t, parent); len(got) != 0 {
		t.Fatalf("failed save left debris: %v", got)
	}

	// Existing target: a mid-save write failure must leave the previous
	// snapshot loadable. (A failure after all writes — at install time —
	// is covered by TestSaveRenameFaultKeepsPreviousSnapshot.)
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.New().FailN(faults.SaveWrite, 1, errInjected))
	err := e.Save(dir)
	faults.Disarm()
	if !errors.Is(err, errInjected) {
		t.Fatalf("Save under write fault = %v", err)
	}
	if got := parentEntries(t, parent); len(got) != 1 || got[0] != "snap" {
		t.Fatalf("failed save left debris: %v", got)
	}
	if _, err := Load(dir, g); err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
}
