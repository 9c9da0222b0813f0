package newslink

import (
	"bytes"
	"testing"
)

// FuzzReadDocs: the documents-artifact decoder never panics and never sizes
// an allocation from an unchecked count; whatever it accepts re-encodes to
// exactly the bytes it read (one encoding per document list); and the
// router's read, which takes the ID and offset columns but not the times or
// the text, accepts exactly what readDocs accepts, with the same IDs.
func FuzzReadDocs(f *testing.F) {
	f.Add(appendDocs(nil, []Document{{ID: 1, Title: "t", Text: "body", Time: 5}, {ID: -2, Title: "Caf\xe9", Text: "a\x00b"}}))
	f.Add(appendDocs(nil, nil))
	f.Add([]byte(docsMagic + "\xff\xff\xff\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := readDocs(bytes.NewReader(data), int64(len(data)), make([]byte, 512))
		_, ids, _, idErr := readDocsIDs(bytes.NewReader(data), int64(len(data)))
		if (err == nil) != (idErr == nil) {
			t.Fatalf("readDocs: %v, readDocIDs: %v", err, idErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(appendDocs(nil, docs), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		for i, d := range docs {
			if ids[i] != d.ID {
				t.Fatalf("document %d: readDocIDs %d, readDocs %d", i, ids[i], d.ID)
			}
		}
	})
}
