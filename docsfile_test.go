package newslink

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadDocs: openDocs, the one reader of the documents artifact, never
// panics and never sizes an allocation from an unchecked count; whatever
// it accepts the read-in (readIn) accepts too, and the resident documents
// re-encode to exactly the bytes read (one encoding per document list);
// and the file-backed store agrees with the resident one on every ID, time,
// title and text, and re-saves the same bytes.
func FuzzReadDocs(f *testing.F) {
	f.Add(appendDocs(nil, []Document{{ID: 1, Title: "t", Text: "body", Time: 5}, {ID: -2, Title: "Caf\xe9", Text: "a\x00b"}}))
	f.Add(appendDocs(nil, nil))
	f.Add([]byte(docsMagic + "\xff\xff\xff\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, data)
		file, times, err := openDocs(path)
		if err != nil {
			return
		}
		defer file.close()
		docs := readDocsIn(t, path)
		if !bytes.Equal(appendDocs(nil, docs), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		if len(times) != len(docs) {
			t.Fatalf("%d times, %d documents", len(times), len(docs))
		}
		for i, d := range docs {
			title, text, err := file.text(i, nil)
			if err != nil || file.id(i) != d.ID || times[i] != d.Time || title != d.Title || text != d.Text {
				t.Fatalf("document %d: file-backed %d %d %q %q (%v), resident %+v", i, file.id(i), times[i], title, text, err, d)
			}
		}
		var resaved bytes.Buffer
		if err := file.writeTo(&resaved); err != nil || !bytes.Equal(resaved.Bytes(), data) {
			t.Fatalf("file-backed store re-saves %d bytes (%v), want the %d it read", resaved.Len(), err, len(data))
		}
	})
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "docs.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readDocsIn reads the documents artifact at path as Load does: openDocs,
// then the read-in.
func readDocsIn(t testing.TB, path string) []Document {
	t.Helper()
	d, times, err := openDocs(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.readIn(times, make([]byte, 512)); err != nil {
		t.Fatalf("the read-in refuses what openDocs accepts: %v", err)
	}
	return d.docs
}
