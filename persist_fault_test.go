package newslink

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"newslink/internal/corpus"
	"newslink/internal/faults"
)

// copyDir clones a flat snapshot directory into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	files, err := readFiles(src)
	if err == nil {
		err = os.MkdirAll(dst, 0o755)
	}
	for name, data := range files {
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, name), data, 0o644)
		}
	}
	if err != nil {
		t.Fatal(err)
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
	return heldUnder(t, dir, "")
}

// heldUnder is openUnder restricted to the files whose names end in suffix.
func heldUnder(t *testing.T, dir, suffix string) (fds, maps int) {
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
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, real+"/") && strings.HasSuffix(target, suffix) {
			fds++
		}
	}
	for _, line := range strings.Split(string(mapped), "\n") {
		if strings.Contains(line, " "+real+"/") && strings.HasSuffix(line, suffix) {
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

// TestOnDiskReadErrorNeverBecomesEmpty: once the files behind a loaded
// engine (Load, and LoadRouted with its shards) are truncated, every read
// answers exactly or fails. None may turn the fault into an empty answer:
// not a filtered search's entity allowlist, not Compact, a policy merge or
// Save. A loaded segment's indexes are on the heap, so an emptied index
// fails nothing: the snapshot's twelve documents and seven one-document
// segments make the eighth, sealed while text.idx is empty, a merge run
// the policy completes, and the step's Compact and Saves succeed.
func TestOnDiskReadErrorNeverBecomesEmpty(t *testing.T) {
	r := runHistory(t, "addall 0-11; build; add 12; add 13; add 14; add 15; add 16; add 17; add 18; save; "+
		"add 19, truncate text.idx, search q=4 k=50, related 3; truncate node.idx, search q=4 beta=0 ent=1, explain 3 q=4; "+
		"truncate docs.bin, delete 5, related 4; save; truncate docs.bin; compact; save")
	if r.failed != 0 || r.counted != 0 {
		t.Fatalf("%d policy merges met the truncated artifacts and %d merges or merged documents were counted; want no failure and none counted",
			r.failed, r.counted)
	}
	// The stored fields, truncated under the mappings and then removed by
	// the repair. A compact before the damage leaves the reloaded (Load)
	// execution resident, so only the sharded (LoadRouted) one maps it.
	for name, h := range map[string]string{
		"Load/truncated/docs.bin":       "addall 0-11; build; save; truncate docs.bin, search q=4, related 3, explain 3 q=4; save",
		"Load/removed/docs.bin":         "addall 0-11; build; save; truncate docs.bin; search q=4, related 3, explain 3 q=4; delete 5; save",
		"LoadRouted/truncated/docs.bin": "addall 0-11; build; delete 2; save; compact; truncate docs.bin, search q=4, related 3, explain 3 q=4",
		"LoadRouted/removed/docs.bin":   "addall 0-11; build; delete 2; save; compact; truncate docs.bin; search q=4, related 3, explain 3 q=4",
		"WAL/truncated/text.idx":        "addall 0-11; build; add 12; save; crash 13; truncate text.idx, search q=4 k=50; truncate text.idx; search q=4",
	} {
		t.Run(name, func(t *testing.T) { runHistory(t, h) })
	}
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

// TestCloseReleasesEveryMapping: a loaded engine maps nothing and holds
// one descriptor per segment, on its documents artifact. The segments a
// merge retires — by Compact, or by the tiered policy on refresh — keep
// theirs open while the engine is open, and Close releases every
// descriptor, theirs included.
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
			if fds, maps := openUnder(t, dir); fds != loaded || maps != 0 {
				t.Fatalf("loaded engine holds %d descriptors and %d mappings, want %d and 0", fds, maps, loaded)
			}
			if err := c.merge(e); err != nil {
				t.Fatal(err)
			}
			if n := e.NumSegments(); n >= loaded {
				t.Fatalf("%s left %d segments of the %d loaded: nothing retired", c.name, n, loaded)
			}
			if fds, maps := openUnder(t, dir); fds != loaded || maps != 0 {
				t.Fatalf("after %s: %d descriptors and %d mappings, want %d and 0", c.name, fds, maps, loaded)
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
// Compact, which read too — fails with ErrClosed, on engines that hold
// their documents and on engines that map them, so none touches a released
// mapping; each reopens with every write it held.
func TestReadsAfterCloseFail(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8; close; search q=4; save; update 3; close; search q=4 k=50; related 2; explain 2 q=4")
}

// TestSaveRenameFaultKeepsPreviousSnapshot: a failure at the install
// rename leaves no snapshot where there was none, rolls a previous one
// back into place unchanged, and leaves no staging or parked copy; the
// WAL keeps the generation the failed snapshot would have covered, so a
// crash replays it over the previous snapshot.
func TestSaveRenameFaultKeepsPreviousSnapshot(t *testing.T) {
	runHistory(t, "addall 0-7; build; installfail; save; add 8, delete 2; installfail; crash 9; search q=4 k=50; save; search q=4")
}

// TestSaveWriteFaultCleansUp: a failure while writing an artifact aborts
// the save, leaves no staging directory, and keeps the target absent or
// its previous snapshot untouched, which a crash still recovers over.
func TestSaveWriteFaultCleansUp(t *testing.T) {
	runHistory(t, "addall 0-7; build; savefail; save; add 8, update 4; savefail; crash 9; search q=4 k=50; save; search q=4")
}

// TestOverlappingSavesKeepAckedWrites: a Save held after its capture (a
// one-shot delay at its first artifact write), a write acknowledged
// meanwhile, and a second Save to the same directory, which captures that
// write. Saves run one at a time, so the second installs last and the
// write survives a Load with the log. Overlapping, the second one pruned
// the log generation holding the write and the first installed its older
// capture over it, and the write was lost.
func TestOverlappingSavesKeepAckedWrites(t *testing.T) {
	g, arts := corpus.Sample()
	walDir, dir := filepath.Join(t.TempDir(), "wal"), filepath.Join(t.TempDir(), "snap")
	e := New(g, DefaultConfig(), WithWAL(walDir))
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	inj := faults.New().Delay(faults.SaveWrite, 300*time.Millisecond).FailN(faults.SaveWrite, 1, nil)
	faults.Arm(inj)
	defer faults.Disarm()
	first := make(chan error, 1)
	go func() { first <- e.Save(dir) }()
	for inj.Hits(faults.SaveWrite) == 0 {
		select {
		case err := <-first:
			t.Fatalf("the first save returned %v before writing", err)
		case <-time.After(time.Millisecond):
		}
	}
	x := Document{ID: 9600, Title: "between the saves", Text: "A bulletin about the Taliban in Lahore."}
	if err := e.Add(x); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(e.Save(dir), <-first, e.Close()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g, WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	loaded.Refresh()
	if _, ok := loaded.set.Load().position(x.ID); !ok {
		t.Fatalf("document %d, acknowledged between the two saves, is lost", x.ID)
	}
}

// TestLoadRollsBackInterruptedInstall: a crash between an install's two
// renames leaves the previous snapshot parked at <dir>.old and no dir.
// Load puts it back and restores the engine that saved it; leaving it
// parked made a restarted daemon rebuild from its corpus, and the next
// Save remove the parked snapshot. The parked name comes from the cleaned
// path, so a re-save over "snap/" parks the snapshot beside the directory,
// not inside it.
func TestLoadRollsBackInterruptedInstall(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if _, err := os.Stat(dir + ".old"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the parked snapshot is still there: %v", err)
	}
	if err := loaded.Save(dir + string(filepath.Separator)); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, loaded, e)
	assertSameRankings(t, loaded, e, lifecycleQueries)
}
