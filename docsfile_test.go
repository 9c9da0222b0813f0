package newslink

import (
	"bytes"
	"testing"
)

// FuzzReadDocs: openDocs, the one reader of the documents artifact, never
// panics and never sizes an allocation from an unchecked count; whatever
// it accepts re-encodes to exactly the bytes read (one encoding per
// document list), and the store re-saves those bytes.
func FuzzReadDocs(f *testing.F) {
	f.Add(appendDocs(nil, []Document{{ID: 1, Title: "t", Text: "body", Time: 5}, {ID: -2, Title: "Caf\xe9", Text: "a\x00b"}}))
	f.Add(appendDocs(nil, nil))
	f.Add([]byte(docsMagic + "\xff\xff\xff\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, times, err := openDocs(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		docs := readDocsIn(t, data)
		if !bytes.Equal(appendDocs(nil, docs), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		if len(times) != len(docs) {
			t.Fatalf("%d times, %d documents", len(times), len(docs))
		}
		var resaved bytes.Buffer
		if err := d.writeTo(&resaved); err != nil || !bytes.Equal(resaved.Bytes(), data) {
			t.Fatalf("the store re-saves %d bytes (%v), want the %d it read", resaved.Len(), err, len(data))
		}
	})
}

// readDocsIn reads every document of the documents artifact data through
// openDocs, the way a loaded segment's doc does.
func readDocsIn(t testing.TB, data []byte) []Document {
	t.Helper()
	d, times, err := openDocs(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	s := &segment{docs: d, times: times}
	docs := make([]Document, len(times))
	for i := range docs {
		if docs[i], err = s.doc(i); err != nil {
			t.Fatal(err)
		}
	}
	return docs
}
