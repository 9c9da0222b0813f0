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
// the router's engine over the full snapshot. That alignment is what
// lets the router rebase worker-local hit positions by addition and
// merge them with the engine's own comparator (search.MergeTopK).
type Plan struct {
	// ID identifies the plan: a digest of the config, graph fingerprint
	// and per-slot segment assignment, tombstones included. Every RPC
	// carries it; workers reject requests for a plan they do not serve.
	ID        string
	Graph     newslink.GraphFingerprint
	Checksums map[string]string
	Shards    []ShardPlan
}

// ShardPlan is one slot's slice of the snapshot.
type ShardPlan struct {
	Base     int // global position of the slot's first document
	Docs     int // documents including tombstoned ones
	Live     int // documents excluding tombstoned ones
	Segments []newslink.ManifestSegment
}

// BuildPlan partitions the segments of the snapshot whose manifest is m,
// holding segmentDocs[i] documents in segment i, into at most shards
// contiguous, document-balanced slots. Fewer segments than shards yields
// fewer slots — a slot always holds at least one segment. A tombstone
// bitmap that does not decode or does not cover its segment is
// newslink.ErrSnapshotCorrupt.
func BuildPlan(m *newslink.Manifest, segmentDocs []int, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", shards)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("cluster: snapshot has no segments")
	}
	if len(segmentDocs) != len(m.Segments) {
		return nil, fmt.Errorf("cluster: %d document counts for %d segments", len(segmentDocs), len(m.Segments))
	}
	total := 0
	for _, n := range segmentDocs {
		total += n
	}
	n := min(shards, len(m.Segments))
	p := &Plan{
		Graph:     m.Graph,
		Checksums: m.Checksums,
		Shards:    make([]ShardPlan, n),
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
		dead, err := deadBitmap(sm, segmentDocs[i])
		if err != nil {
			return nil, err
		}
		sp.Segments = append(sp.Segments, sm)
		sp.Docs += segmentDocs[i]
		sp.Live += segmentDocs[i] - dead.Count()
		cum += segmentDocs[i]
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d", m.Config, m.Graph, n)
	for _, sp := range p.Shards {
		fmt.Fprintf(h, "|%d", sp.Base)
		for _, sm := range sp.Segments {
			// Deletes change only the manifest, not a segment ID.
			if sm.Dead == "" {
				io.WriteString(h, ":"+sm.ID)
			} else {
				io.WriteString(h, ":"+sm.ID+"#"+sm.Dead)
			}
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
