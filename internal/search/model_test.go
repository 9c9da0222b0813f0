package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"newslink/internal/index"
)

// The kernel model (DESIGN.md §7). A kernel history is one line of text,
// "part 300 7; part 40 2 map; del 0 17; query q=0+5*2 k=3 pool=10 f=2 sh=2; merge 0 1",
// of steps over an ordered list of parts, the segments of one index: part
// appends a part of documents drawn from a seed, kept as built or written
// with WriteTo and parsed back from those bytes (map); del
// tombstones one document of a part; merge replaces a run of adjacent
// parts by MergeSegments over them and their tombstones; query runs one
// query through every retrieval path production keeps. The source a query
// reads is what the engine reads of its segment set: the one part, or the
// parts' Multi continued from the previous step's with NewMultiFrom,
// behind index.Masked with the tombstones and the query's filter.
//
// After every step each part and the source are checked against the
// model's documents — each term's postings and DF by index.Postings and by
// cursor (the NextBlock walk, the block summaries, SeekBlock), and the
// source's N, DocLen and AvgDocLen bits against one float64 fold of the
// lengths in document order, dead documents included — and a merged part's
// bytes against a Builder over the surviving documents. A query's rankings, for the BOW scorer and the
// BON one (NodeBM25) over the same source, must equal the brute-force
// scorer's, score bits included: TopKBlockMaxStats, TopK, and OrderTerms
// over the unmasked source with TopKBlockMaxOrderedStats on each of up to
// three shards of the parts, merged by MergeTopK; then Fuse of the two legs
// must equal Equation 3 computed from the brute-force legs. The scorer
// counts term frequencies, DF and lengths from the documents themselves,
// uses the source's N and avgdl with dead documents counted (Lucene's
// semantics), sums the terms in OrderTerms order and ranks by RankOrder
// only the live documents the filter keeps.

// kernelVocab is the number of terms documents draw, t0 the most common; a
// query may also name the four after them, which no document holds.
const kernelVocab = 40

// kstep is one step: its kind, its positional arguments, whether its part
// is parsed back from its serialized bytes, and a query's parameters as
// key=value.
type kstep struct {
	kind   string
	args   []int // part: documents and seed; del: part and document; merge: first and last part
	read   bool
	params []string
}

type kernelHistory []kstep

func (s kstep) String() string {
	f := []string{s.kind}
	for _, a := range s.args {
		f = append(f, strconv.Itoa(a))
	}
	if s.read {
		f = append(f, "map")
	}
	return strings.Join(append(f, s.params...), " ")
}

func (h kernelHistory) String() string {
	steps := make([]string, len(h))
	for i, s := range h {
		steps[i] = s.String()
	}
	return strings.Join(steps, "; ")
}

// kernelArgs is the number of positional arguments of each kind.
var kernelArgs = map[string]int{"part": 2, "del": 2, "merge": 2, "query": 0}

// parseKernelHistory reads a history in the form String writes. A query
// parameter may be left out for its default.
func parseKernelHistory(text string) (kernelHistory, error) {
	var h kernelHistory
	for _, text := range strings.Split(text, ";") {
		f := strings.Fields(text)
		if len(f) == 0 {
			continue
		}
		s := kstep{kind: f[0]}
		n, ok := kernelArgs[s.kind]
		if !ok || len(f) <= n {
			return nil, fmt.Errorf("%q: unknown step or missing argument", text)
		}
		var err error
		for _, arg := range f[1 : n+1] {
			a, aerr := strconv.Atoi(arg)
			if aerr != nil || a < 0 {
				err = fmt.Errorf("bad argument %s", arg)
			}
			s.args = append(s.args, a)
		}
		rest := f[n+1:]
		if len(rest) > 0 && rest[0] == "map" && (s.kind == "part" || s.kind == "merge") {
			s.read, rest = true, rest[1:]
		}
		s.params = rest
		if s.kind != "query" && len(rest) > 0 {
			err = fmt.Errorf("unexpected %s", rest[0])
		}
		if s.kind == "query" && err == nil {
			_, err = s.query()
		}
		if err != nil {
			return nil, fmt.Errorf("%q: %v", text, err)
		}
		h = append(h, s)
	}
	return h, nil
}

// kquery is a query step's parameters: q lists term IDs with an optional
// weight, "0+5*2+41"; k is Fuse's depth and pool each leg's; f keeps the
// documents whose global position is not a multiple of it (0: no
// filter); sh is the number of shards the parts are cut into.
type kquery struct {
	q              Query
	k, pool, f, sh int
	beta           float64
}

func (s kstep) query() (kquery, error) {
	kq := kquery{q: Query{}, k: 10, pool: 10, sh: 1, beta: 0.5}
	ints := map[string]*int{"k": &kq.k, "pool": &kq.pool, "f": &kq.f, "sh": &kq.sh}
	for _, p := range s.params {
		key, val, _ := strings.Cut(p, "=")
		var err error
		switch key {
		case "q":
			for _, term := range strings.Split(val, "+") {
				id, weight, hasWeight := strings.Cut(term, "*")
				n, err := strconv.Atoi(id)
				w := 1
				if hasWeight && err == nil {
					w, err = strconv.Atoi(weight)
				}
				if err != nil || n < 0 || w < 1 {
					return kq, fmt.Errorf("bad term %s", term)
				}
				kq.q[termName(n)] += float64(w)
			}
		case "beta":
			kq.beta, err = strconv.ParseFloat(val, 64)
		default:
			n, ok := ints[key]
			if !ok {
				return kq, fmt.Errorf("unknown parameter %s", p)
			}
			*n, err = strconv.Atoi(val)
		}
		if err != nil {
			return kq, fmt.Errorf("bad parameter %s", p)
		}
	}
	if kq.k < 1 || kq.pool < 1 || kq.sh < 1 || kq.sh > 3 {
		return kq, errors.New("k and pool must be positive, sh 1 to 3")
	}
	return kq, nil
}

func termName(id int) string { return "t" + strconv.Itoa(id) }

// kernelDocs draws n documents from seed, each a sorted term list. Half of
// them hold t0 and a quarter t1, so those lists span blocks; the other
// terms are skewed towards small IDs, so the rare ones are absent from
// most parts. Whether terms repeat into TF runs depends on the seed, so
// parts and blocks differ in their maximum TF, and one document in twelve
// holds a heavy term, a TF of 64 or more.
func kernelDocs(n, seed int) [][]string {
	rng := rand.New(rand.NewSource(int64(seed)))
	runs := seed % 3 // TF runs: none, some, many
	docs := make([][]string, n)
	for d := range docs {
		var terms []string
		if rng.Intn(2) == 0 {
			terms = append(terms, "t0")
		}
		if rng.Intn(4) == 0 {
			terms = append(terms, "t1")
		}
		for range rng.Intn(6) {
			term := termName(rng.Intn(kernelVocab) * rng.Intn(kernelVocab) / kernelVocab)
			for range 1 + rng.Intn(1+2*runs) {
				terms = append(terms, term)
			}
		}
		if rng.Intn(12) == 0 {
			heavy := termName([]int{0, 1, kernelVocab - 1}[rng.Intn(3)])
			for range 64 + rng.Intn(200) {
				terms = append(terms, heavy)
			}
		}
		slices.Sort(terms)
		docs[d] = terms
	}
	return docs
}

// build indexes documents with one Builder, the reference layout.
func build(docs [][]string) *index.Index {
	b := index.NewBuilder()
	for _, terms := range docs {
		b.Add(terms)
	}
	return b.Build()
}

func serialize(t testing.TB, idx *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// kpart is a part: its documents, its index and its tombstones (nil when
// none).
type kpart struct {
	docs [][]string
	idx  *index.Index
	dead *index.Bitmap
}

// kernelRun is one history in execution.
type kernelRun struct {
	t      *testing.T
	h      kernelHistory
	step   int
	parts  []kpart
	multi  *index.Multi // the parts' Multi, which the next step's continues
	src    index.Source // what an unfiltered query masks: the one part or multi
	counts [3]int       // TopKBlockMaxStats' postings scored, blocks decoded and blocks skipped
	found  int          // queries that ranked a document
}

// runKernelHistory runs the history written in text. If it has queries,
// one of them must rank a document: rankings that all come back empty
// equal the oracle's without showing anything.
func runKernelHistory(t *testing.T, text string) {
	t.Helper()
	h, err := parseKernelHistory(text)
	if err != nil {
		t.Fatal(err)
	}
	r := runKernelModel(t, h)
	if slices.ContainsFunc(h, func(s kstep) bool { return s.kind == "query" }) && r.found == 0 {
		t.Fatal("no query ranked a document")
	}
}

// runKernelModel runs h, checking every step. A failure logs the history.
func runKernelModel(t *testing.T, h kernelHistory) *kernelRun {
	t.Helper()
	r := &kernelRun{t: t, h: h}
	defer func() {
		if t.Failed() {
			t.Logf("history: %s", h)
		}
	}()
	for i, s := range h {
		r.step = i
		r.apply(s)
		r.check()
	}
	return r
}

func (r *kernelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d (%s): %s", r.step, r.h[r.step], fmt.Sprintf(format, args...))
}

func (r *kernelRun) apply(s kstep) {
	switch s.kind {
	case "part":
		docs := kernelDocs(s.args[0], s.args[1])
		r.parts = append(r.parts, kpart{docs: docs, idx: r.keep(build(docs), s.read)})
	case "del":
		if s.args[0] >= len(r.parts) || s.args[1] >= len(r.parts[s.args[0]].docs) {
			r.fatalf("no such part or document")
		}
		p := &r.parts[s.args[0]]
		if p.dead == nil {
			p.dead = index.NewBitmap(len(p.docs))
		}
		p.dead.Set(s.args[1])
	case "merge":
		lo, hi := s.args[0], s.args[1]
		if lo > hi || hi >= len(r.parts) {
			r.fatalf("no such run of parts")
		}
		var idxs []*index.Index
		var dead []*index.Bitmap
		var survivors [][]string
		for _, p := range r.parts[lo : hi+1] {
			idxs, dead = append(idxs, p.idx), append(dead, p.dead)
			for d, terms := range p.docs {
				if !p.dead.Get(d) {
					survivors = append(survivors, terms)
				}
			}
		}
		merged, err := index.MergeSegments(idxs, dead)
		if err != nil {
			r.fatalf("%v", err)
		}
		if !bytes.Equal(serialize(r.t, merged), serialize(r.t, build(survivors))) {
			r.fatalf("the merge is not the bytes of a build over the surviving documents")
		}
		r.parts = slices.Replace(r.parts, lo, hi+1, kpart{docs: survivors, idx: r.keep(merged, s.read)})
	case "query":
		r.query(s)
	}
	idxs := make([]index.Source, len(r.parts))
	for i, p := range r.parts {
		idxs[i] = p.idx
	}
	r.multi = index.NewMultiFrom(r.multi, idxs...)
	r.src = r.multi
	if len(idxs) == 1 {
		r.src = idxs[0]
	}
}

// keep returns idx, or when read the index parsed back from its
// serialized bytes, as a snapshot load parses a segment's.
func (r *kernelRun) keep(idx *index.Index, read bool) *index.Index {
	if !read {
		return idx
	}
	got, err := index.ReadIndex(serialize(r.t, idx))
	if err != nil {
		r.fatalf("%v", err)
	}
	return got
}

// docs returns every document in position order, dead ones included.
func (r *kernelRun) docs() [][]string {
	var all [][]string
	for _, p := range r.parts {
		all = append(all, p.docs...)
	}
	return all
}

// check holds every part and the source to the model's documents.
func (r *kernelRun) check() {
	for i, p := range r.parts {
		r.checkPostings(fmt.Sprintf("part %d", i), p.idx, p.docs)
	}
	if r.src == nil {
		return
	}
	all := r.docs()
	r.checkPostings("the source", r.src, all)
	// One float64 fold in document order, as a Builder over every document
	// folds it.
	total := 0.0
	for d, terms := range all {
		if got := r.src.DocLen(index.DocID(d)); got != docLen(terms) {
			r.fatalf("the source's DocLen(%d) is %v, want %v", d, got, docLen(terms))
		}
		total += docLen(terms)
	}
	avg := total / float64(len(all))
	if r.src.NumDocs() != len(all) || len(all) > 0 && math.Float64bits(r.src.AvgDocLen()) != math.Float64bits(avg) {
		r.fatalf("the source has %d documents of mean length %v, want %d of %v", r.src.NumDocs(), r.src.AvgDocLen(), len(all), avg)
	}
}

// checkPostings holds every term's postings in src, by index.Postings and
// by cursor, to those of docs: the list, its DF and maximum TF, each
// block's summary, and where SeekBlock lands from a fresh cursor for the
// first, the last and one past the last document of every block.
func (r *kernelRun) checkPostings(name string, src index.Source, docs [][]string) {
	want := map[string][]index.Posting{}
	for d, terms := range docs {
		for term, tf := range termRuns(terms) {
			want[term] = append(want[term], index.Posting{Doc: index.DocID(d), TF: float32(tf)})
		}
	}
	for id := range kernelVocab + 4 {
		term, exp := termName(id), want[termName(id)]
		if got, err := index.Postings(src, term); err != nil || !slices.Equal(got, exp) || src.DF(term) != len(exp) {
			r.fatalf("%s: Postings(%s) = %v (%v) of DF %d, want %v", name, term, got, err, src.DF(term), exp)
		}
		c := src.TermCursor(term)
		if c == nil {
			if len(exp) > 0 {
				r.fatalf("%s: no cursor for %s", name, term)
			}
			continue
		}
		maxTF := float32(0)
		for _, p := range exp {
			maxTF = max(maxTF, p.TF)
		}
		if c.Count() != len(exp) || c.MaxTF() != maxTF {
			r.fatalf("%s: %s's cursor counts %d postings of TF up to %v, want %d up to %v", name, term, c.Count(), c.MaxTF(), len(exp), maxTF)
		}
		var walked []index.Posting
		var targets []index.DocID
		for c.NextBlock() {
			blk, err := c.Block()
			if err != nil || len(blk) == 0 {
				r.fatalf("%s: %s's block %d: %d postings (%v)", name, term, len(targets)/3, len(blk), err)
			}
			last, blockMax := blk[len(blk)-1].Doc, float32(0)
			for _, p := range blk {
				blockMax = max(blockMax, p.TF)
			}
			if c.BlockLen() != len(blk) || c.BlockLast() != last || c.BlockMaxTF() != blockMax {
				r.fatalf("%s: %s's block %d summary (%d, last %d, max %v), decoded (%d, %d, %v)",
					name, term, len(targets)/3, c.BlockLen(), c.BlockLast(), c.BlockMaxTF(), len(blk), last, blockMax)
			}
			walked = append(walked, blk...)
			targets = append(targets, blk[0].Doc, last, last+1)
		}
		index.ReleaseCursor(c)
		if !slices.Equal(walked, exp) {
			r.fatalf("%s: %s's blocks %v, want %v", name, term, walked, exp)
		}
		for _, target := range targets {
			i, _ := slices.BinarySearchFunc(exp, target, func(p index.Posting, d index.DocID) int { return int(p.Doc) - int(d) })
			c := src.TermCursor(term)
			ok := c.SeekBlock(target)
			var blk []index.Posting
			if ok {
				blk, _ = c.Block()
			}
			index.ReleaseCursor(c)
			if ok != (i < len(exp)) || ok && !slices.Contains(blk, exp[i]) {
				r.fatalf("%s: %s's SeekBlock(%d) = %v onto %v, want the block of posting %d", name, term, target, ok, blk, i)
			}
		}
	}
}

// termRuns is a document's term frequencies: the length of each run of
// equal terms.
func termRuns(terms []string) map[string]int {
	tf := map[string]int{}
	for _, term := range terms {
		tf[term]++
	}
	return tf
}

// docLen is a document's length as a Builder folds it: its TFs summed as
// float32 in term order.
func docLen(terms []string) float64 {
	var total float32
	for i := 0; i < len(terms); {
		j := i
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		total += float32(j - i)
		i = j
	}
	return float64(total)
}

// modFilter keeps the documents whose position, plus base, is not a
// multiple of m.
type modFilter struct{ m, base int }

func (f modFilter) Keep(d index.DocID) bool { return (int(d)+f.base)%f.m != 0 }

// masked is the source over parts[lo:hi] behind their tombstones and the
// filter f, both in its own positions: for every part the source a query
// reads, for a shorter run their Multi, as a shard holds it.
func (r *kernelRun) masked(lo, hi, f int) index.Source {
	var src index.Source = r.src
	if lo > 0 || hi < len(r.parts) {
		idxs := make([]index.Source, hi-lo)
		for i, p := range r.parts[lo:hi] {
			idxs[i] = p.idx
		}
		src = index.NewMulti(idxs...)
	}
	var keep index.DocFilter
	if f > 0 {
		base := 0
		for _, p := range r.parts[:lo] {
			base += len(p.docs)
		}
		keep = modFilter{f, base}
	}
	var dead *index.Bitmap
	off := 0
	for _, p := range r.parts[lo:hi] {
		if p.dead != nil && dead == nil {
			dead = index.NewBitmap(src.NumDocs())
		}
		if p.dead != nil {
			p.dead.ForEach(func(d int) { dead.Set(off + d) })
		}
		off += len(p.docs)
	}
	return index.Masked(src, dead, keep)
}

// query runs one query step on both legs through every path.
func (r *kernelRun) query(s kstep) {
	kq, _ := s.query() // parseKernelHistory checked it
	if r.src == nil {
		r.fatalf("no part to query")
	}
	live := r.masked(0, len(r.parts), kq.f)
	ctx := context.Background()
	var legs, wantLegs [2][]Hit
	for leg, scorer := range []BM25{NewBM25(r.src), NodeBM25(r.src.NumDocs(), r.src.AvgDocLen())} {
		ordered, _ := OrderTerms(r.src, scorer, kq.q)
		want := r.oracle(scorer, ordered, kq.f, kq.pool)
		got, st, err := TopKBlockMaxStats(ctx, live, scorer, kq.q, kq.pool)
		if err != nil || !slices.Equal(got, want) {
			r.fatalf("leg %d: TopKBlockMaxStats %v (%v)\nwant %v", leg, got, err, want)
		}
		if st.Scored+st.Skipped > st.Postings {
			r.fatalf("leg %d: scored %d + skipped %d > postings %d", leg, st.Scored, st.Skipped, st.Postings)
		}
		r.counts[0] += st.Scored
		r.counts[1] += st.BlocksDecoded
		r.counts[2] += st.BlocksSkipped
		if exact, err := TopK(live, scorer, kq.q, kq.pool); err != nil || !slices.Equal(exact, want) {
			r.fatalf("leg %d: TopK %v (%v)\nwant %v", leg, exact, err, want)
		}
		if sharded := r.sharded(scorer, ordered, kq); !slices.Equal(sharded, want) {
			r.fatalf("leg %d: %d shards %v\nwant %v", leg, kq.sh, sharded, want)
		}
		legs[leg], wantLegs[leg] = got, want
	}
	if len(legs[0])+len(legs[1]) > 0 {
		r.found++
	}
	fused := Fuse(legs[0], legs[1], kq.beta, kq.k)
	if want := fuseOracle(wantLegs[0], wantLegs[1], kq.beta, kq.k); !slices.Equal(fused, want) {
		r.fatalf("Fuse %v\nwant %v", fused, want)
	}
}

// sharded is the cluster's scatter-gather: the parts cut into kq.sh runs,
// each run's shard-local winners under the ordered terms, rebased to
// global positions and merged, the last shard's list first, so a tie
// broken by list order instead of RankOrder shows.
func (r *kernelRun) sharded(scorer BM25, ordered []OrderedTerm, kq kquery) []Hit {
	var lists [][]Hit
	base := 0
	for i := range kq.sh {
		lo, hi := i*len(r.parts)/kq.sh, (i+1)*len(r.parts)/kq.sh
		if lo == hi {
			continue
		}
		hits, _, err := TopKBlockMaxOrderedStats(context.Background(), r.masked(lo, hi, kq.f), scorer, ordered, kq.pool)
		if err != nil {
			r.fatalf("shard %d: %v", i, err)
		}
		for j := range hits {
			hits[j].Doc += index.DocID(base)
		}
		for _, p := range r.parts[lo:hi] {
			base += len(p.docs)
		}
		lists = append([][]Hit{hits}, lists...)
	}
	return MergeTopK(kq.pool, lists...)
}

// oracle is the brute-force scorer: the n best of the documents neither
// tombstoned nor at a position the filter f drops, each scored from its
// own terms, with DF counted over every document, dead ones included.
func (r *kernelRun) oracle(s BM25, ordered []OrderedTerm, f, n int) []Hit {
	docs := r.docs()
	df := map[string]int{}
	for _, terms := range docs {
		for term := range termRuns(terms) {
			df[term]++
		}
	}
	var dead []bool
	for _, p := range r.parts {
		for d := range p.docs {
			dead = append(dead, p.dead.Get(d))
		}
	}
	var hits []Hit
	for d, terms := range docs {
		if dead[d] || f > 0 && d%f == 0 {
			continue
		}
		tf := termRuns(terms)
		score, matched := 0.0, false
		for _, t := range ordered {
			if tf[t.Term] > 0 {
				score += t.Weight * s.Weight(float64(tf[t.Term]), df[t.Term], docLen(terms))
				matched = true
			}
		}
		if matched {
			hits = append(hits, Hit{index.DocID(d), score})
		}
	}
	slices.SortFunc(hits, RankOrder)
	return clip(hits, n)
}

// fuseOracle is Equation 3 by a map: each leg max-normalized, the BOW
// share summed first, then sorted; β at 0 or 1 keeps one leg.
func fuseOracle(bow, bon []Hit, beta float64, k int) []Hit {
	normalize := func(hits []Hit, w float64) map[index.DocID]float64 {
		m, out := 0.0, map[index.DocID]float64{}
		for _, h := range hits {
			m = max(m, h.Score)
		}
		for _, h := range hits {
			out[h.Doc] = w * (h.Score / m)
		}
		return out
	}
	var acc map[index.DocID]float64
	switch {
	case beta <= 0:
		acc = normalize(bow, 1)
	case beta >= 1:
		acc = normalize(bon, 1)
	default:
		acc = normalize(bow, 1-beta)
		for d, s := range normalize(bon, beta) {
			acc[d] += s
		}
	}
	var out []Hit
	for d, s := range acc {
		out = append(out, Hit{d, s})
	}
	slices.SortFunc(out, RankOrder)
	return clip(out, k)
}

// byteGen draws choices from a byte string, the fuzzer's input: each byte
// is one choice, and an exhausted input draws zeros.
type byteGen struct{ data []byte }

func (g *byteGen) intn(n int) (v int) {
	if len(g.data) > 0 {
		v, g.data = int(g.data[0])%n, g.data[1:]
	}
	return v
}

func (g *byteGen) pick(choices ...string) string { return choices[g.intn(len(choices))] }

// genKernelHistory draws a history from data: one to three parts, then up
// to 40 steps while the input lasts, tracking each part's size and
// tombstones so every step names what exists. It stops adding parts at six
// or at 1,500 documents.
func genKernelHistory(data []byte) kernelHistory {
	g := &byteGen{data: data}
	var h kernelHistory
	type genPart struct {
		n    int
		dead map[int]bool
	}
	var parts []genPart
	docs := 0 // in every part, dead ones included
	part := func() {
		n := []int{0, 1, 6, 40, 130, 300}[g.intn(6)]
		h = append(h, kstep{kind: "part", args: []int{n, g.intn(256)}, read: g.intn(2) == 0})
		parts = append(parts, genPart{n, map[int]bool{}})
		docs += n
	}
	for range 1 + g.intn(3) {
		part()
	}
	for len(g.data) > 0 && len(h) < 40 {
		switch p := g.intn(len(parts)); g.intn(8) {
		case 0:
			if len(parts) < 6 && docs < 1500 {
				part()
			}
		case 1, 2:
			for range 1 + g.intn(4) {
				if parts[p].n > 0 {
					d := g.intn(parts[p].n)
					h = append(h, kstep{kind: "del", args: []int{p, d}})
					parts[p].dead[d] = true
				}
			}
		case 3:
			hi := p + g.intn(min(3, len(parts)-p))
			h = append(h, kstep{kind: "merge", args: []int{p, hi}, read: g.intn(2) == 0})
			merged := genPart{0, map[int]bool{}}
			for _, gp := range parts[p : hi+1] {
				merged.n += gp.n - len(gp.dead)
				docs -= len(gp.dead)
			}
			parts = slices.Replace(parts, p, hi+1, merged)
		default:
			var terms []string
			for range 1 + g.intn(3) {
				id := g.intn(kernelVocab + 4)
				if g.intn(2) == 0 {
					id %= 4 // a common term: its list spans blocks
				}
				terms = append(terms, strconv.Itoa(id)+g.pick("", "", "*2", "*3"))
			}
			h = append(h, kstep{kind: "query", params: []string{"q=" + strings.Join(terms, "+"),
				g.pick("k=1", "k=3", "k=10", "k=50"), g.pick("pool=1", "pool=3", "pool=10", "pool=1000"),
				g.pick("beta=0", "beta=0.3", "beta=0.5", "beta=1"), g.pick("f=0", "f=0", "f=2", "f=3", "f=7", "f=1"),
				g.pick("sh=1", "sh=2", "sh=3")}})
		}
	}
	return h
}

// seedBytes is n bytes of math/rand seeded by seed.
func seedBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// kernelSeeds is how many generated histories TestKernelModel runs.
const kernelSeeds = 8

// TestKernelModel runs seeded histories from the generator, each after
// checking that it reads back from the text it prints, and holds their
// kernel counts to testdata/kernel_counts.golden: per seed, the postings
// scored and the blocks decoded and skipped by TopKBlockMaxStats over
// every query of both legs. A change to the kernel's traversal that moves
// a count rewrites that file and says which count moved and why.
func TestKernelModel(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "kernel_counts.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := "# seed postings_scored blocks_decoded blocks_skipped\n"
	for seed := int64(1); seed <= kernelSeeds; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			h := genKernelHistory(seedBytes(seed, 200))
			if back, err := parseKernelHistory(h.String()); err != nil || back.String() != h.String() {
				t.Fatalf("%s reads back as %s (%v)", h, back, err)
			}
			r := runKernelModel(t, h)
			got += fmt.Sprintf("%d %d %d %d\n", seed, r.counts[0], r.counts[1], r.counts[2])
		})
	}
	if got != string(golden) {
		t.Errorf("kernel counts moved; testdata/kernel_counts.golden holds\n%s\nthe kernel now counts\n%s", golden, got)
	}
}

// FuzzKernelHistory wraps the generator: every input is a history.
func FuzzKernelHistory(f *testing.F) {
	f.Add(seedBytes(kernelSeeds+1, 200))
	f.Fuzz(func(t *testing.T, data []byte) { runKernelModel(t, genKernelHistory(data)) })
}

// fixedHistories holds, by test name, the fixed histories of the
// equivalence cases the model replaced; runFixed runs its test's.
var fixedHistories = map[string]string{
	// Parts parsed back from their bytes, heavy TFs among them, hold the
	// postings, lengths and DF of the documents they were built from.
	"TestDiskIndexMatchesMemory": "part 200 42 map; part 130 8 map; query q=0+39 k=3; merge 0 1 map; query q=0+39*2 k=3",
	// Built, parsed and segmented cursors walk and seek lists of many blocks.
	"TestCursorParity": "part 1000 3; part 300 4 map; part 1 5; query q=0 k=5 pool=5; del 0 7; query q=1+0 k=5 pool=5",
	"TestMultiEquivalentToMonolithic": "part 9 8; part 14 9; part 5 10; part 12 11; query q=0+1+2 k=10 pool=40 sh=3; " +
		"merge 0 3; query q=0+1+2 k=10 pool=40",
	"TestMultiWithDiskSegment": "part 2 1; part 1 2 map; query q=0+1 k=3; merge 0 1; query q=0+1 k=3",
	// Runs of built and parsed parts, empty ones, scattered tombstones and a
	// part whose every document is dead, merged into built and parsed parts.
	"TestMergeMatchesReference": "part 300 29; part 0 30 map; part 130 31 map; part 40 32; part 6 33 map; " +
		"del 0 5; del 0 77; del 0 299; del 2 0; del 2 129; del 4 0; del 4 1; del 4 2; del 4 3; del 4 4; del 4 5; " +
		"query q=0+7 k=10 f=3 sh=3; merge 2 4 map; merge 0 1; query q=0+7 k=10 sh=2; merge 0 1 map; query q=0+7 k=10",
	"TestMergeIdentityNoDeletes": "part 10 7; part 3 8; part 7 9; part 1 10; part 0 11; part 25 12; " +
		"merge 0 1; merge 1 4; query q=0+1 k=5 sh=3; merge 0 1; query q=0+1 k=5",
	"TestMergeDropsTombstoned": "part 14 11; part 16 12; del 0 0; del 0 5; del 0 13; query q=0+1+2 k=30 pool=30 sh=2; " +
		"merge 0 1; query q=0+1+2 k=30 pool=30",
	// Document 1 alone holds t3, t14, t21 and t28: once it is tombstoned and
	// merged away, they leave the vocabulary.
	"TestMergeDropsFullyDeadTerm": "part 2 2; query q=0+3+14 k=2; del 0 1; query q=0+3+14 k=2; merge 0 0; query q=0+3+14 k=2",
	"TestLiveFilteredTraversalsAgree": "part 500 3; del 0 0; del 0 2; del 0 3; del 0 10; del 0 11; del 0 64; del 0 128; del 0 255; del 0 499; " +
		"query q=0+5+9 k=1 pool=1; query q=0+5+9 k=10 pool=10 f=2; query q=0+5+9 k=500 pool=500; query q=1+2*2 k=3 pool=3 f=3",
	"TestMaxScoreAgreesWithExact": "part 60 99; query q=0+3 k=1 pool=1; query q=1+2*2+5 k=5 pool=5; query q=3+4+6+7 k=10 pool=10; " +
		"part 25 100; query q=0*3+1 k=2 pool=2; query q=2+8 k=7 pool=7",
	"TestTopKMatchesNaiveReference": "part 40 123; query q=0+1+2 pool=10; query q=3 pool=3; part 3 124; query q=0+5 pool=1000",
	// Small pools over lists whose blocks differ in their maximum TF, and a
	// rare term after a frequent one over lists of many blocks: the shapes
	// that prune.
	"TestBlockMaxAgreesWithExact": "part 130 15; part 40 16 map; part 60 17; query q=0+9 k=1 pool=1; query q=2*2+20 k=10 pool=10; " +
		"query q=1+0 k=5 pool=5; part 2000 1234; query q=0+9 k=1 pool=1; query q=1*2+0+35 k=12 pool=12; query q=0*3+2 k=5 pool=5",
	"TestBlockMaxAgreesOnDisk": "part 3000 77 map; query q=0+1 k=1 pool=1; query q=0+6 k=4 pool=4; query q=39+1+0 k=10 pool=10",
	"TestShardedTopKMatchesSequential": "part 37 40; part 500 120; part 300 7 map; part 40 8; " +
		"query q=0+1+5 k=1 pool=1 sh=2; query q=0+1+5 k=5 pool=5 sh=3; query q=0+1+5 k=20 pool=20 sh=3; query q=2+3*2 k=100 pool=100 sh=2",
	"TestShardedTopKAgainstExactTopK": "part 200 3; part 200 4; part 200 5 map; part 200 6; " +
		"query q=0+1+2 k=1000 pool=1000 sh=3; query q=4+5+6+7 k=1000 pool=1000 sh=2",
	// Two parts of the same documents: every score has a twin in the other
	// part, so Fuse and MergeTopK must break ties by RankOrder.
	"TestFuseAndMergeMatchReferences": "part 300 5; part 300 5 map; query q=0+3 k=10 pool=10 beta=0 sh=2; " +
		"query q=0+3 k=10 pool=10 beta=0.2 sh=2; query q=1+2 k=5 pool=20 beta=0.5 sh=3; query q=1+2 k=3 pool=1 beta=1 sh=2",
}

func runFixed(t *testing.T) { runKernelHistory(t, fixedHistories[t.Name()]) }

func TestDiskIndexMatchesMemory(t *testing.T)       { runFixed(t) }
func TestCursorParity(t *testing.T)                 { runFixed(t) }
func TestMultiEquivalentToMonolithic(t *testing.T)  { runFixed(t) }
func TestMultiWithDiskSegment(t *testing.T)         { runFixed(t) }
func TestMergeMatchesReference(t *testing.T)        { runFixed(t) }
func TestMergeIdentityNoDeletes(t *testing.T)       { runFixed(t) }
func TestMergeDropsTombstoned(t *testing.T)         { runFixed(t) }
func TestMergeDropsFullyDeadTerm(t *testing.T)      { runFixed(t) }
func TestLiveFilteredTraversalsAgree(t *testing.T)  { runFixed(t) }
func TestMaxScoreAgreesWithExact(t *testing.T)      { runFixed(t) }
func TestTopKMatchesNaiveReference(t *testing.T)    { runFixed(t) }
func TestBlockMaxAgreesWithExact(t *testing.T)      { runFixed(t) }
func TestBlockMaxAgreesOnDisk(t *testing.T)         { runFixed(t) }
func TestShardedTopKMatchesSequential(t *testing.T) { runFixed(t) }
func TestShardedTopKAgainstExactTopK(t *testing.T)  { runFixed(t) }
func TestFuseAndMergeMatchReferences(t *testing.T)  { runFixed(t) }
