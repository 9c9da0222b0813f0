package newslink

import (
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

// TestLoadCorruptionTable drives Load and LoadOnDisk over every corruption
// class the snapshot format defends against: truncation, a single bit
// flip, and outright removal of each binary artifact, plus version skew
// and a torn meta.json. Each case must return the matching typed error
// and never a (half-built) engine.
func TestLoadCorruptionTable(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	pristine := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(pristine); err != nil {
		t.Fatal(err)
	}

	artifacts := []string{"text.idx", "node.idx", "emb.bin"}
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
		// The retired int8-signature format: an emb.bin under the NLEMB2
		// magic whose checksum matches (so verification passes and the
		// parser sees it) is a corrupt artifact, not a panic and not a
		// silently empty BON index.
		tc{"retired-format/emb.bin", func(t *testing.T, dir string) {
			path := segArtifact(t, dir, "emb.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, "NLEMB2\n")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			sum, err := fileChecksum(path)
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
		}, ErrSnapshotCorrupt, "emb.bin: core: bad magic"},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			copyDir(t, pristine, dir)
			c.mutate(t, dir)
			for loader, loadFn := range map[string]func(string) (*Engine, error){
				"Load":       func(d string) (*Engine, error) { return Load(d, g) },
				"LoadOnDisk": func(d string) (*Engine, error) { return LoadOnDisk(d, g) },
			} {
				got, err := loadFn(dir)
				if got != nil {
					got.Close()
					t.Fatalf("%s returned an engine from a corrupt snapshot", loader)
				}
				if !errors.Is(err, c.wantErr) || !strings.Contains(err.Error(), c.names) {
					t.Fatalf("%s error = %v, want %v naming %q", loader, err, c.wantErr, c.names)
				}
			}
		})
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
