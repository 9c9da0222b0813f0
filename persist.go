package newslink

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/kg"
)

// Snapshot layout (version 7): a directory with
//
//	meta.json             engine config, graph fingerprint, the ordered
//	                      segment list (content ID + tombstone bitmap per
//	                      segment) and a CRC32-C checksum per artifact
//	seg-<id>.text.idx     BOW inverted index of one segment (binary)
//	seg-<id>.node.idx     BON inverted index of one segment (binary)
//	seg-<id>.docs.bin     the segment's documents: ID and time columns,
//	                      titles and texts (docsfile.go)
//
// No subgraph embedding is stored: a document's is a function of its
// text and the graph, and the read paths that need one re-derive it.
//
// <id> is derived from the three artifacts' contents (truncated SHA-256),
// so a segment saved twice gets the same file names and bytes. Every Save
// writes every segment whole (DESIGN.md §11). Tombstones live in
// meta.json — not in the binary artifacts — so a delete changes no
// segment file.
//
// A snapshot is only valid together with the knowledge graph it was built
// on; every loader verifies the graph's fingerprint — its counts and the
// checksum of its columns (kg.Graph.Checksum) — and rejects a mismatch.
//
// Crash safety is unchanged from version 3: Save never touches the target
// directory until the whole snapshot is durable. It stages everything in a
// temporary sibling directory, fsyncs each file and the directory itself,
// records a CRC32-C checksum per artifact in meta.json (written last), and
// only then renames the directory into place (parking any previous
// snapshot at <dir>.old and rolling it back if the install fails). A crash
// at any point leaves either the old snapshot or the new one — never a
// torn mix: a crash between the two renames leaves only the parked copy,
// which RecoverSnapshot, called by every loader and by Save, renames back.
// Load verifies version and checksums so silent corruption surfaces as
// ErrSnapshotCorrupt instead of a half-built engine.

// snapshotVersion 7 dropped each segment's stored-embeddings artifact and
// added the graph checksum to the fingerprint. Every loader reads version
// 7 only; any other version is ErrSnapshotVersion, and such a snapshot is
// rebuilt from its corpus.
const snapshotVersion = 7

// segmentSuffixes are the binary artifacts every segment owns.
var segmentSuffixes = [...]string{"text.idx", "node.idx", docsSuffix}

const docsSuffix = "docs.bin"

// segFileName names one segment artifact file inside the snapshot.
func segFileName(id, suffix string) string { return "seg-" + id + "." + suffix }

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64), shared by Save and Load.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentMeta describes one segment in meta.json: which artifact files it
// reads (via ID) and the tombstone bitmap (index.Bitmap codec, base64;
// absent when nothing is deleted).
type segmentMeta struct {
	ID   string `json:"id"`
	Dead string `json:"dead,omitempty"`
}

type snapshotMeta struct {
	Version  int           `json:"version"`
	Config   Config        `json:"config"`
	Graph    graphPrint    `json:"graph"`
	Segments []segmentMeta `json:"segments"`
	// Checksums maps each artifact file to the CRC32-C of its contents,
	// rendered as 8 hex digits.
	Checksums map[string]string `json:"checksums"`
}

// graphPrint binds a snapshot to its graph: the counts, and the checksum
// of the graph's columns, so that a graph of the same shape re-weighted or
// relabelled is refused too.
type graphPrint struct {
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Rels     int    `json:"rels"`
	Checksum uint32 `json:"crc32c"`
}

func fingerprint(g *kg.Graph) graphPrint {
	return graphPrint{Nodes: g.NumNodes(), Edges: g.NumEdges(), Rels: g.NumRels(), Checksum: g.Checksum()}
}

// checksumString renders a CRC32-C value the way meta.json stores it.
func checksumString(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// copyBufSize sizes the buffer artifacts are streamed through when
// checksummed; a load allocates one and reuses it for every file.
const copyBufSize = 32 << 10

// checksumFile streams one artifact file through CRC32-C, reading through
// buf, and returns the checksum in the manifest's encoding (8 hex digits):
// what the loaders verify against.
func checksumFile(path string, buf []byte) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	// Hide the file's WriteTo, which would allocate a buffer of its own.
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{f}, buf); err != nil {
		return "", err
	}
	return checksumString(h.Sum32()), nil
}

// syncDir fsyncs a directory, making the entries inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Save writes a snapshot of the built engine to dir (created if needed).
// Adding documents to the corpus requires rebuilding; snapshots make the
// expensive part — embedding the corpus (Figure 7) — a one-time cost.
// Save is safe to call concurrently with searches and writers; it seals
// any pending segment first and serializes a consistent capture of the
// published segment set.
//
// Every segment is written whole: its indexes from the heap, its
// documents from memory or, for a loaded segment, from its open documents
// file; if that file was truncated under the engine, Save fails with that
// error. A segment saved before is written under the same file names with
// the same bytes, and a delete changes only meta.json, which carries the
// tombstones. Saves of one engine run one at a time. After Close, Save is
// ErrClosed.
//
// The write is atomic with respect to crashes and failures: the snapshot
// is staged in a temporary directory, fsynced, checksummed, and renamed
// into place only when complete. On any failure the previous snapshot at
// dir (if one exists) stays intact and loadable, and the staging
// directory is removed.
func (e *Engine) Save(dir string) error {
	if e.closed.Load() {
		return ErrClosed
	}
	// One Save at a time, from the capture through the prune: a later
	// capture that rotated the log and pruned the generation an earlier
	// one holds must not be replaced by that earlier capture installing
	// last, which would leave the directory without the writes of the
	// pruned generation.
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	// Seal and capture in one critical section: an Add landing between a
	// separate Refresh and the capture would leave documents behind that
	// are absent from the serialized segments, silently losing them on
	// Load.
	//
	// With the WAL armed the critical section also rotates the log, under
	// walMu so no write can slip between capture and rotation: everything
	// logged before it is in the capture (the ingest queue is drained
	// first — admitted writes were logged to the old generation, so they
	// must be captured before that generation becomes prunable), and
	// everything after lands in the new generation, which a crash replays
	// over this snapshot. Pruning happens only after the snapshot is
	// durably installed; a crash before that replays both generations over
	// the previous snapshot, which the old generation's records belong to.
	e.walMu.Lock()
	if p := e.ingest.Load(); p != nil && !p.closed {
		p.drainLocked()
	}
	e.mu.Lock()
	e.refreshLocked()
	set := e.set.Load()
	var rotErr error
	if e.wal != nil && set != nil {
		rotErr = e.wal.Rotate()
	}
	e.mu.Unlock()
	e.walMu.Unlock()
	if set == nil {
		return ErrNotBuilt
	}
	if rotErr != nil {
		return rotErr
	}
	parent := filepath.Dir(filepath.Clean(dir))
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".newslink-tmp-")
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			os.RemoveAll(tmp)
		}
	}()
	sums := make(map[string]string)
	writeArtifact := func(name string, extra io.Writer, write func(io.Writer) error) error {
		if err := faults.Fire(faults.SaveWrite); err != nil {
			return fmt.Errorf("newslink: writing %s: %w", name, err)
		}
		f, err := os.Create(filepath.Join(tmp, name))
		if err != nil {
			return err
		}
		h := crc32.New(castagnoli)
		w := io.MultiWriter(f, h)
		if extra != nil {
			w = io.MultiWriter(f, h, extra)
		}
		if err := write(w); err != nil {
			f.Close()
			return fmt.Errorf("newslink: writing %s: %w", name, err)
		}
		// fsync before the final rename: a snapshot must be durable
		// before it becomes reachable under its public name.
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		sums[name] = checksumString(h.Sum32())
		return nil
	}
	segMetas := make([]segmentMeta, 0, len(set.segs))
	for si, seg := range set.segs {
		id, err := writeSegment(tmp, si, seg, writeArtifact, sums)
		if err != nil {
			return err
		}
		sm := segmentMeta{ID: id}
		if seg.dead.Any() {
			sm.Dead = base64.StdEncoding.EncodeToString(seg.dead.Encode())
		}
		segMetas = append(segMetas, sm)
	}
	meta := snapshotMeta{
		Version:   snapshotVersion,
		Config:    e.cfg,
		Graph:     fingerprint(e.Graph()),
		Segments:  segMetas,
		Checksums: sums,
	}
	metaBytes, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	// meta.json goes last: it references the checksums of everything else,
	// so its presence marks the artifact set complete.
	if err := writeArtifact("meta.json", nil, func(w io.Writer) error {
		_, err := w.Write(metaBytes)
		return err
	}); err != nil {
		return err
	}
	delete(sums, "meta.json") // not self-referenced
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := installSnapshot(tmp, dir); err != nil {
		return err
	}
	committed = true
	// The snapshot is durable and reachable; the pre-rotation WAL
	// generation is now redundant and can go. (A failure here leaves the
	// old segments behind — replaying them over this snapshot re-applies
	// writes the snapshot already holds, which is idempotent: adds skip as
	// duplicates, upserts re-install identical content, deletes of absent
	// docs skip. Correctness never depends on Prune succeeding.)
	e.walMu.Lock()
	l := e.wal
	e.walMu.Unlock()
	if l != nil {
		return l.Prune()
	}
	return nil
}

// writeSegment serializes one segment's three artifacts into the staging
// directory and returns the segment's content id. Files are first written
// under staging names while a running SHA-256 over their concatenation
// derives the id, then renamed to their final seg-<id>.* names.
func writeSegment(tmp string, si int, seg *segment, writeArtifact func(string, io.Writer, func(io.Writer) error) error, sums map[string]string) (string, error) {
	digest := sha256.New()
	writers := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{"text.idx", func(w io.Writer) error { _, err := seg.text.WriteTo(w); return err }},
		{"node.idx", func(w io.Writer) error { _, err := seg.node.WriteTo(w); return err }},
		{docsSuffix, seg.docs.writeTo},
	}
	staged := make([]string, len(writers))
	for i, a := range writers {
		staged[i] = fmt.Sprintf("stage-%d.%s", si, a.suffix)
		if err := writeArtifact(staged[i], digest, a.write); err != nil {
			return "", err
		}
	}
	id := hex.EncodeToString(digest.Sum(nil))[:16]
	for i, a := range writers {
		name := segFileName(id, a.suffix)
		if err := os.Rename(filepath.Join(tmp, staged[i]), filepath.Join(tmp, name)); err != nil {
			return "", err
		}
		sums[name] = sums[staged[i]]
		delete(sums, staged[i])
	}
	return id, nil
}

// installSnapshot atomically replaces dir with the staged snapshot in
// tmp: any existing snapshot is parked next to the target, the staging
// directory is renamed into place, and the parked copy is removed only
// after the rename succeeded (and restored if it failed). The parent
// directory is fsynced so the swap itself is durable.
func installSnapshot(tmp, dir string) error {
	// A parked copy is put back where a crash left no dir; one beside a
	// dir was left by a crash after the second rename and is dead weight.
	if err := RecoverSnapshot(dir); err != nil {
		return err
	}
	old := parkedDir(dir)
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	moved := false
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
		moved = true
	}
	err := faults.Fire(faults.SaveRename)
	if err == nil {
		err = os.Rename(tmp, dir)
	} else {
		err = fmt.Errorf("newslink: installing snapshot: %w", err)
	}
	if err != nil {
		if moved {
			// Roll the previous snapshot back into place.
			if rerr := os.Rename(old, dir); rerr != nil {
				return errors.Join(err, rerr)
			}
		}
		return err
	}
	if moved {
		if err := os.RemoveAll(old); err != nil {
			return err
		}
	}
	return syncDir(filepath.Dir(filepath.Clean(dir)))
}

// parkedDir is where an install parks the snapshot it replaces.
func parkedDir(dir string) string { return filepath.Clean(dir) + ".old" }

// RecoverSnapshot undoes what a crash between an install's two renames
// leaves: no dir, and the snapshot it held parked at <dir>.old. It renames
// the parked snapshot back to dir, and does nothing when dir exists or
// nothing is parked. ReadManifest, and so every loader, and Save call it;
// a caller that chooses between loading dir and building anew by whether
// dir exists calls it first.
func RecoverSnapshot(dir string) error {
	if _, err := os.Lstat(dir); !errors.Is(err, fs.ErrNotExist) {
		return nil // dir exists, or fails a stat that reading it reports
	}
	if err := os.Rename(parkedDir(dir), dir); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	return syncDir(filepath.Dir(filepath.Clean(dir)))
}

// Load restores an engine snapshot written by Save. g must be the same
// knowledge graph the snapshot was built on (verified by fingerprint).
//
// No artifact is mapped (DESIGN.md §11). Each index is read whole into a
// buffer the segment owns, checksum-verified there, and parsed out of it
// with every postings block validated: the bytes parsed are the bytes
// verified, and the postings live on the heap as a built segment's do.
// The documents artifact is checksum-verified by streaming it, then kept
// open: its ID, time and offset columns are read out, and a request reads
// each document it returns with one pread. The engine keeps the
// descriptors until Close.
//
// Load verifies the snapshot before building any state: a format-version
// mismatch returns ErrSnapshotVersion, and an unparsable meta.json, a
// missing or truncated artifact, a checksum mismatch, a corrupt tombstone
// bitmap, or inconsistent document counts return ErrSnapshotCorrupt
// (match both with errors.Is). On any error no engine is returned — never
// a partially loaded one — and nothing stays open.
//
// Runtime options (cache sizes, WithWAL, WithIngestQueue, ...) apply on
// top of the snapshot's persisted Config. With WithWAL set, Load replays
// the write-ahead log over the restored state — recovering every write
// acknowledged after the snapshot was taken — before arming the ingest
// pipeline; a corrupt log fails with ErrWALCorrupt.
func Load(dir string, g *kg.Graph, opts ...Option) (*Engine, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	segs, files, err := loadSegments(dir, g, m, nil)
	if err != nil {
		return nil, err
	}
	// The snapshot's Config is the base; caller options layer on top, so
	// runtime knobs (caches, WAL, ingest queue) configure the restored
	// engine exactly as they would a fresh one.
	e := New(g, append([]Option{m.Config}, opts...)...)
	e.loaded = files
	e.mu.Lock()
	e.publishLocked(segs)
	e.mu.Unlock()
	e.walMu.Lock()
	err = e.startDurabilityLocked()
	e.walMu.Unlock()
	if err != nil {
		closeFiles(files)
		return nil, err
	}
	return e, nil
}

// Close shuts the engine's owned resources down: the ingest pipeline is
// drained and stopped, the write-ahead log is fsynced and closed, and
// every documents descriptor the engine's loader opened is closed — those
// of segments a merge has since retired included.
// Afterwards every read, write, Compact and Save fails with ErrClosed.
// Close must not race reads: a server closes the engine only after it
// stopped serving (http.Server.Shutdown). A second Close is a no-op.
func (e *Engine) Close() error {
	err := e.stopIngest()
	if e.closed.Swap(true) {
		return err
	}
	return errors.Join(err, closeFiles(e.loaded))
}

// loadSegments is the one restore path behind every loader: it checks the
// graph fingerprint, then restores the manifest's segments concurrently —
// each one checksum-verified against the manifest before anything of it is
// parsed — and returns them in manifest order, with the documents
// descriptor each one reads, which the caller owns. fetch, when not nil,
// repairs an artifact that is missing or fails verification (see
// LoadSegments); it is called concurrently. The first failing segment in
// that order decides the error, and every descriptor opened by then is
// closed again: no loader ever returns, or leaks, a partial set.
func loadSegments(dir string, g *kg.Graph, m *snapshotMeta, fetch func(name string) error) ([]*segment, []*os.File, error) {
	if got := fingerprint(g); got != m.Graph {
		return nil, nil, fmt.Errorf("newslink: knowledge graph mismatch: snapshot %+v, graph %+v", m.Graph, got)
	}
	segs := make([]*segment, len(m.Segments))
	files := make([]*os.File, len(m.Segments))
	errs := make([]error, len(m.Segments))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(segs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, copyBufSize)
			for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
				segs[i], files[i], errs[i] = loadSegment(dir, m, i, buf, fetch)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeFiles(files)
			return nil, nil, err
		}
	}
	return segs, files, nil
}

// loadSegment restores segment i of the manifest and returns it with the
// documents descriptor it reads. Each index is read whole into a buffer,
// verified against its recorded checksum and parsed out of that buffer
// (index.ReadIndex), which the segment's index then owns; the documents
// artifact is verified by streaming it through buf, then opened and its
// columns read (openDocs). An artifact that fails verification is handed
// to fetch, when there is one, and the file it wrote read or verified in
// turn. A documents artifact truncated between its check and its open
// reads short, which fails the load like any other corruption.
func loadSegment(dir string, m *snapshotMeta, i int, buf []byte, fetch func(name string) error) (*segment, *os.File, error) {
	sm := m.Segments[i]
	names := SegmentFileNames(sm.ID)
	// The two indexes come first in segmentSuffixes order.
	var data [2][]byte
	for k, name := range names {
		verify := func() (err error) {
			if k < len(data) {
				data[k], err = readArtifact(dir, name, m.Checksums)
				return err
			}
			return verifyArtifact(dir, name, m.Checksums, buf)
		}
		err := verify()
		if err != nil && fetch != nil {
			if err = fetch(name); err == nil {
				err = verify()
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}
	seg := &segment{}
	var f *os.File
	corrupt := func(name string, err error) (*segment, *os.File, error) {
		if f != nil {
			f.Close()
		}
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
	}
	for k, idx := range [...]**index.Index{&seg.text, &seg.node} {
		var err error
		if *idx, err = index.ReadIndex(data[k]); err != nil {
			return corrupt(names[k], err)
		}
	}
	// The documents stay in their file, read per request (stored.go).
	docsName := names[len(names)-1]
	f, err := os.Open(filepath.Join(dir, docsName))
	if err == nil {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			seg.docs, seg.times, err = openDocs(f, st.Size())
		}
	}
	if err != nil {
		return corrupt(docsName, err)
	}
	if n := seg.numDocs(); seg.text.NumDocs() != n || seg.node.NumDocs() != n {
		return corrupt(docsName, fmt.Errorf("segment %s: %d docs, %d text-indexed, %d node-indexed",
			sm.ID, n, seg.text.NumDocs(), seg.node.NumDocs()))
	}
	seg.byID = idOrder(&seg.docs, seg.numDocs())
	if sm.Dead != "" {
		raw, err := base64.StdEncoding.DecodeString(sm.Dead)
		if err != nil {
			return corrupt("meta.json", fmt.Errorf("tombstones of segment %s: %v", sm.ID, err))
		}
		dead, err := index.DecodeBitmap(raw)
		if err != nil {
			return corrupt("meta.json", fmt.Errorf("tombstones of segment %s: %v", sm.ID, err))
		}
		if dead.Len() != seg.numDocs() {
			return corrupt("meta.json", fmt.Errorf("tombstone bitmap covers %d docs, segment has %d", dead.Len(), seg.numDocs()))
		}
		seg.dead = dead
	}
	return seg, f, nil
}

// closeFiles closes the documents descriptors of loaded segments (nil
// entries are the segments of a failed load that never opened one).
func closeFiles(files []*os.File) error {
	var err error
	for _, f := range files {
		if f != nil {
			err = errors.Join(err, f.Close())
		}
	}
	return err
}
