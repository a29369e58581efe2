package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nok/internal/datagen"
	"nok/internal/domnav"
	"nok/internal/pattern"
	"nok/internal/workload"
)

// spec is one workload: the store it serves and the traffic it drives.
type spec struct {
	name    string
	dataset string
	scale   int
	// cache is server.Config.CacheEntries: 0 takes the default, -1
	// disables the result cache.
	cache int
	// writer adds one closed-loop durable POST /ingest connection during
	// the timed phase, which posts the first batches feed bodies.
	writer  bool
	batches int
	// warmup runs the read mix untimed before the timed phase, so the
	// result cache and buffer pool are filled.
	warmup time.Duration
	// valueEvery follows every n-th answered query that has a probe
	// result with GET /value/{id} (0: never).
	valueEvery int
}

var specs = map[string]spec{
	"lookup": {name: "lookup", dataset: "dblp", scale: 3, warmup: time.Second, valueEvery: 4},
	"scan":   {name: "scan", dataset: "catalog", scale: 6, cache: -1, warmup: time.Second},
	"ingest": {name: "ingest", dataset: "dblp", scale: 1, writer: true, batches: 6, valueEvery: 4},
}

// feedDocs is the number of documents in one POST /ingest body: the
// pipeline's default BatchDocs, so one request is normally one group
// commit.
const feedDocs = 256

// probeBatches is the number of probe commits after the timed phase of a
// read workload: the median of three steadies the commit metrics.
const probeBatches = 3

// feedBatches is the length of the fixed feed: enough for the ingest
// writer and for the traced run's splitter timing.
const feedBatches = 8

// query is one distinct query text with its oracle answer.
type query struct {
	text string
	// count and hash are the expected result count and the hash of the
	// expected result IDs in document order.
	count int
	hash  uint64
	// probeID names one expected result with a text value, probeVal its
	// expected value; the GET /value/{id} follow-up checks it.
	probeID, probeVal string
	// fresh marks the fresh-documents query of the ingest workload, whose
	// answer grows with the feed instead of being fixed.
	fresh bool
}

// inputs are everything a run needs before timing starts.
type inputs struct {
	spec
	seed     int64
	xmlPath  string
	xmlBytes int64
	queries  []query
	// seq is the request sequence, indexes into queries; the reader works
	// through it and wraps around.
	seq []int32
	// first is the query answered during set-up.
	first int
	// structural lists the value-free queries, run through nok.StreamAll
	// as the streaming reference in the traced run.
	structural []int
	// fresh is the fresh-documents query.
	fresh int
	// feed holds the POST /ingest bodies, feedDocs documents each.
	feed [][]byte
}

// prepare generates the document and the feed, derives every expected
// answer from the domnav oracle, and draws the request sequence.
func prepare(sp spec, seed int64, dir string) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed, xmlPath: dir + "/doc.xml"}
	ds, ok := datagen.SpecByName(sp.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", sp.dataset)
	}
	if err := datagen.GenerateFile(ds, in.xmlPath, sp.scale, seed); err != nil {
		return nil, fmt.Errorf("generate %s: %w", sp.dataset, err)
	}
	fi, err := os.Stat(in.xmlPath)
	if err != nil {
		return nil, err
	}
	in.xmlBytes = fi.Size()
	f, err := os.Open(in.xmlPath)
	if err != nil {
		return nil, err
	}
	doc, err := domnav.Parse(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("oracle parse: %w", err)
	}
	for k := 0; k < feedBatches; k++ {
		in.feed = append(in.feed, feedBatch(seed, k))
	}
	// The fresh-documents query is always present: the ingest reader
	// mixes it in, and the read workloads verify their probe commit with
	// it.
	in.queries = []query{{text: freshQuery, fresh: true}}
	in.fresh = 0
	rng := rand.New(rand.NewSource(seed))
	if sp.dataset == "catalog" {
		err = in.scanQueries(doc, rng)
	} else {
		err = in.lookupQueries(doc, rng)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// freshQuery counts the feed documents: only feed documents carry
// <ingestseq>.
const freshQuery = `//ingestseq`

// expect evaluates q with the oracle and fills in its answer.
func expect(doc *domnav.Doc, text string) (query, error) {
	t, err := pattern.Parse(text)
	if err != nil {
		return query{}, fmt.Errorf("parse %q: %w", text, err)
	}
	return answer(text, domnav.Evaluate(doc, t)), nil
}

func answer(text string, nodes []*domnav.Node) query {
	q := query{text: text, count: len(nodes)}
	h := fnv.New64a()
	for _, n := range nodes {
		id := n.ID.String()
		h.Write([]byte(id))
		h.Write([]byte{0})
		if q.probeID == "" && n.Value != "" {
			q.probeID, q.probeVal = id, n.Value
		}
	}
	q.hash = h.Sum64()
	return q
}

// scanQueries builds the scan mix: the low-selectivity Q9–Q12 plus their
// '//'-substituted variants. The variants are drawn with the fixed seeds 1
// and 2, so every run evaluates the same seven query texts; the run's seed
// varies the document and the request order. Each cycle of the sequence
// runs every query once, in a seeded order, and with an odd number of
// texts the median latency falls inside one text's samples instead of
// between two.
func (in *inputs) scanQueries(doc *domnav.Doc, rng *rand.Rand) error {
	qs, err := workload.ForDataset(in.dataset)
	if err != nil {
		return err
	}
	var low []workload.Query
	for _, q := range qs {
		if q.Category.Selectivity == "low" && !q.NA() {
			low = append(low, q)
		}
	}
	seen := map[string]bool{}
	variants := append(workload.SubstituteDescendant(low, 1), workload.SubstituteDescendant(low, 2)...)
	for _, q := range append(low, variants...) {
		if seen[q.Expr] {
			continue
		}
		seen[q.Expr] = true
		a, err := expect(doc, q.Expr)
		if err != nil {
			return err
		}
		in.structural = append(in.structural, len(in.queries))
		in.queries = append(in.queries, a)
	}
	for len(in.seq) < 1<<16 {
		for _, i := range rng.Perm(len(in.structural)) {
			in.seq = append(in.seq, int32(in.structural[i]))
		}
	}
	in.first = in.structural[0]
	return nil
}

// lookupQueries builds the lookup mix: the high- and moderate-selectivity
// Q1–Q8. The value-constrained shapes (Q1, Q3, Q5, Q7) take their
// literal, with a seeded Zipf skew, from the store's own author values
// plus the two planted needles; there are more distinct texts than the
// result cache holds, so the mix both hits and misses.
//
// Expected answers of the value shapes come from domnav evaluated on a
// pruned document: the root plus only the top-level records that contain
// the literal. Every value shape compares a child of a top-level record
// with the literal and returns a node inside that record, so a record
// without the literal can never contribute a result. The pruned copies keep
// the original Dewey IDs. One literal per shape is also checked against
// the full document, so a wrong pruning fails the run before timing.
func (in *inputs) lookupQueries(doc *domnav.Doc, rng *rand.Rand) error {
	qs, err := workload.ForDataset(in.dataset)
	if err != nil {
		return err
	}
	// A shape is either a fixed query text or the text around one
	// literal.
	type shape struct {
		fixed, prefix, suffix string
	}
	var shapes []shape
	for _, q := range qs {
		if q.Category.Selectivity == "low" || q.NA() {
			continue
		}
		lit := ""
		for _, needle := range []string{datagen.NeedleHigh, datagen.NeedleMod} {
			if strings.Contains(q.Expr, strconv.Quote(needle)) {
				lit = strconv.Quote(needle)
			}
		}
		if lit == "" {
			shapes = append(shapes, shape{fixed: q.Expr})
			continue
		}
		i := strings.Index(q.Expr, lit)
		shapes = append(shapes, shape{prefix: q.Expr[:i], suffix: q.Expr[i+len(lit):]})
	}

	// The literal pool: every distinct author value except the
	// low-selectivity needle, in a seeded order that decides which
	// literals are hot.
	values := map[string]bool{}
	for _, n := range doc.Nodes {
		if n.Name == "author" && n.Value != "" && n.Value != datagen.NeedleLow {
			values[n.Value] = true
		}
	}
	pool := make([]string, 0, len(values))
	for v := range values {
		pool = append(pool, v)
	}
	sort.Strings(pool)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	byLit := recordsByValue(doc, values)

	index := map[string]int{}
	add := func(q query) int {
		if i, ok := index[q.text]; ok {
			return i
		}
		index[q.text] = len(in.queries)
		in.queries = append(in.queries, q)
		return len(in.queries) - 1
	}
	for _, s := range shapes {
		if s.fixed == "" {
			continue
		}
		a, err := expect(doc, s.fixed)
		if err != nil {
			return err
		}
		in.structural = append(in.structural, add(a))
	}
	// shapeQuery returns the index of shape s with literal lit, evaluating
	// it on first use.
	shapeQuery := func(s shape, lit string) (int, error) {
		text := s.prefix + strconv.Quote(lit) + s.suffix
		if i, ok := index[text]; ok {
			return i, nil
		}
		t, err := pattern.Parse(text)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", text, err)
		}
		return add(answer(text, domnav.Evaluate(pruned(doc, byLit[lit]), t))), nil
	}
	for _, s := range shapes {
		if s.fixed != "" {
			continue
		}
		i, err := shapeQuery(s, pool[0])
		if err != nil {
			return err
		}
		full, err := expect(doc, in.queries[i].text)
		if err != nil {
			return err
		}
		if full.count != in.queries[i].count || full.hash != in.queries[i].hash {
			return fmt.Errorf("pruned oracle disagrees with the full document on %q: %d vs %d results",
				full.text, in.queries[i].count, full.count)
		}
	}

	zipf := rand.NewZipf(rng, 1.01, 100, uint64(len(pool)-1))
	in.seq = make([]int32, 1<<18)
	for k := range in.seq {
		s := shapes[rng.Intn(len(shapes))]
		if s.fixed != "" {
			in.seq[k] = int32(index[s.fixed])
			continue
		}
		i, err := shapeQuery(s, pool[zipf.Uint64()])
		if err != nil {
			return err
		}
		in.seq[k] = int32(i)
	}
	if in.writer {
		// Every eighth request of the ingest reader is the
		// fresh-documents query.
		for k := 7; k < len(in.seq); k += 8 {
			in.seq[k] = int32(in.fresh)
		}
	}
	in.first = int(in.seq[0])
	return nil
}

// recordsByValue maps each wanted value to the top-level records whose
// subtree contains it, in document order.
func recordsByValue(doc *domnav.Doc, wanted map[string]bool) map[string][]*domnav.Node {
	out := map[string][]*domnav.Node{}
	for _, rec := range doc.Root.Children {
		seen := map[string]bool{}
		var walk func(n *domnav.Node)
		walk = func(n *domnav.Node) {
			if wanted[n.Value] && !seen[n.Value] {
				seen[n.Value] = true
				out[n.Value] = append(out[n.Value], rec)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(rec)
	}
	return out
}

// pruned copies the root and the given records into a new document,
// renumbering document order but keeping every node's Dewey ID.
func pruned(doc *domnav.Doc, recs []*domnav.Node) *domnav.Doc {
	out := &domnav.Doc{}
	var copyNode func(n, parent *domnav.Node) *domnav.Node
	copyNode = func(n, parent *domnav.Node) *domnav.Node {
		c := &domnav.Node{Name: n.Name, Value: n.Value, Parent: parent, Order: len(out.Nodes), ID: n.ID, Level: n.Level}
		out.Nodes = append(out.Nodes, c)
		kids := n.Children
		if parent == nil {
			kids = recs
		}
		for _, k := range kids {
			c.Children = append(c.Children, copyNode(k, c))
		}
		c.End = len(out.Nodes) - 1
		return c
	}
	out.Root = copyNode(doc.Root, nil)
	return out
}

// feedBatch renders POST /ingest body k: feedDocs dblp-shaped articles of
// about 30 elements each, most of them citations.
// Their author values ("Feed Writer n") never occur in the generated
// documents, and only they carry <ingestseq>, so the base queries' answers
// stay fixed while the fresh-documents query counts the feed.
func feedBatch(seed int64, k int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	words := []string{"succinct", "storage", "path", "query", "pattern", "tree",
		"stream", "index", "join", "page", "level", "sibling", "interval"}
	var b strings.Builder
	for i := 0; i < feedDocs; i++ {
		n := k*feedDocs + i
		fmt.Fprintf(&b, "<article key=\"feed/%d\" mdate=\"2024-0%d-1%d\">\n", n, 1+rng.Intn(9), rng.Intn(9))
		for a := 0; a < 1+rng.Intn(3); a++ {
			fmt.Fprintf(&b, "  <author>Feed Writer %d</author>\n", rng.Intn(5000))
		}
		b.WriteString("  <title>")
		for w := 0; w < 5; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		b.WriteString("</title>\n")
		fmt.Fprintf(&b, "  <year>%d</year>\n  <journal>Feed Journal</journal>\n  <volume>%d</volume>\n", 1990+rng.Intn(35), 1+rng.Intn(40))
		fmt.Fprintf(&b, "  <pages>%d-%d</pages>\n", rng.Intn(400), 400+rng.Intn(400))
		for c := 0; c < 10+rng.Intn(20); c++ {
			fmt.Fprintf(&b, "  <cite>ref%06d</cite>\n", rng.Intn(1_000_000))
		}
		fmt.Fprintf(&b, "  <ingestseq>%d</ingestseq>\n</article>\n", n)
	}
	return []byte(b.String())
}
