package cluster

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"

	"newslink"
	"newslink/internal/index"
)

// Plan is one immutable partitioning of a snapshot's segment set across
// shard slots. Segments stay in snapshot order and each slot takes a
// contiguous run, so a slot's documents occupy the contiguous global
// position range [Base, Base+Docs) — exactly the positions they hold in
// a single-process engine over the full snapshot. That alignment is what
// lets the router rebase worker-local hit positions by addition and
// merge them with the engine's own comparator (search.MergeTopK).
type Plan struct {
	// ID identifies the plan: a digest of the config, graph fingerprint
	// and per-slot segment assignment. Every RPC carries it; workers
	// reject requests for a plan they do not serve.
	ID        string
	Config    newslink.Config
	Graph     newslink.GraphFingerprint
	Checksums map[string]string
	Shards    []ShardPlan

	// docShard maps live public document IDs to their owning slot, for
	// explain routing. Tombstoned documents are absent, matching the
	// engine's own lookup (404 for deleted docs).
	docShard map[int]int
}

// ShardPlan is one slot's slice of the snapshot.
type ShardPlan struct {
	Base     int // global position of the slot's first document
	Docs     int // documents including tombstoned ones
	Live     int // documents excluding tombstoned ones
	Segments []newslink.ManifestSegment
	// SegmentDocs is each segment's document count, aligned with Segments.
	SegmentDocs []int
}

// BuildPlan partitions the segments of the snapshot in dir, whose manifest
// is m, into at most shards contiguous, document-balanced slots. Fewer
// segments than shards yields fewer slots — a slot always holds at least
// one segment. Document IDs and counts come from the ID column of each
// segment's checksum-verified documents artifact (newslink.SegmentDocIDs);
// no document is decoded or kept. A damaged artifact or tombstone bitmap
// is newslink.ErrSnapshotCorrupt.
func BuildPlan(dir string, m *newslink.Manifest, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", shards)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("cluster: snapshot has no segments")
	}
	ids := make([][]int, len(m.Segments))
	total := 0
	for i, sm := range m.Segments {
		var err error
		if ids[i], err = newslink.SegmentDocIDs(dir, sm.ID, m.Checksums); err != nil {
			return nil, err
		}
		total += len(ids[i])
	}
	n := min(shards, len(m.Segments))
	p := &Plan{
		Config:    m.Config,
		Graph:     m.Graph,
		Checksums: m.Checksums,
		Shards:    make([]ShardPlan, n),
		docShard:  make(map[int]int, total),
	}
	cum, w := 0, 0
	for i, sm := range m.Segments {
		segsLeft := len(m.Segments) - i
		slotsLeft := n - w - 1
		if w < n-1 && len(p.Shards[w].Segments) > 0 &&
			(segsLeft == slotsLeft || cum >= (w+1)*total/n) {
			w++
		}
		sp := &p.Shards[w]
		if len(sp.Segments) == 0 {
			sp.Base = cum
		}
		dead, err := deadBitmap(sm, len(ids[i]))
		if err != nil {
			return nil, err
		}
		for j, id := range ids[i] {
			if dead == nil || !dead.Get(j) {
				p.docShard[id] = w
				sp.Live++
			}
		}
		sp.Segments = append(sp.Segments, sm)
		sp.SegmentDocs = append(sp.SegmentDocs, len(ids[i]))
		sp.Docs += len(ids[i])
		cum += len(ids[i])
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d", m.Config, m.Graph, n)
	for _, sp := range p.Shards {
		fmt.Fprintf(h, "|%d", sp.Base)
		for _, sm := range sp.Segments {
			io.WriteString(h, ":"+sm.ID)
		}
	}
	p.ID = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

// deadBitmap decodes a manifest segment's tombstone bitmap over its n
// documents (nil when the segment has none).
func deadBitmap(sm newslink.ManifestSegment, n int) (*index.Bitmap, error) {
	if sm.Dead == "" {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(sm.Dead)
	if err != nil {
		return nil, fmt.Errorf("%w: tombstones of segment %s: %v", newslink.ErrSnapshotCorrupt, sm.ID, err)
	}
	b, err := index.DecodeBitmap(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: tombstones of segment %s: %v", newslink.ErrSnapshotCorrupt, sm.ID, err)
	}
	if b.Len() != n {
		return nil, fmt.Errorf("%w: tombstones of segment %s cover %d documents, it has %d",
			newslink.ErrSnapshotCorrupt, sm.ID, b.Len(), n)
	}
	return b, nil
}

// ShardOf returns the slot holding the live document with the given
// public ID, or false for unknown/tombstoned IDs.
func (p *Plan) ShardOf(docID int) (int, bool) {
	w, ok := p.docShard[docID]
	return w, ok
}

// slotOfPos returns the slot whose global position range covers pos.
func (p *Plan) slotOfPos(pos int) int {
	for i := len(p.Shards) - 1; i >= 0; i-- {
		if pos >= p.Shards[i].Base {
			return i
		}
	}
	return 0
}
