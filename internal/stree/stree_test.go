package stree

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/symtab"
)

// ---- reference model --------------------------------------------------------

// modelNode is the in-memory oracle for navigation primitives.
type modelNode struct {
	sym      symtab.Sym
	level    int
	id       dewey.ID
	parent   *modelNode
	children []*modelNode
	// order is the index of this node in document (pre-)order.
	order int
}

// buildModel constructs the oracle tree from a token script (sym values for
// opens, 0 for close).
func buildModel(script []symtab.Sym) *modelNode {
	var root *modelNode
	var stack []*modelNode
	order := 0
	for _, tok := range script {
		if tok == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		n := &modelNode{sym: tok, level: len(stack) + 1, order: order}
		order++
		if len(stack) == 0 {
			n.id = dewey.Root()
			root = n
		} else {
			p := stack[len(stack)-1]
			n.parent = p
			p.children = append(p.children, n)
			n.id = p.id.Child(uint32(len(p.children)))
		}
		stack = append(stack, n)
	}
	return root
}

func preorder(n *modelNode, out *[]*modelNode) {
	if n == nil {
		return
	}
	*out = append(*out, n)
	for _, c := range n.children {
		preorder(c, out)
	}
}

// ---- script helpers ---------------------------------------------------------

// paperScript is the bibliography subject tree of Figure 2. Symbols:
// a=bib b=book z=@year e=title c=author g=last f=first i=publisher j=price
// d=editor h=affiliation.
func paperScript(t *testing.T, tab *symtab.Table) []symtab.Sym {
	t.Helper()
	sym := func(name string) symtab.Sym {
		s, err := tab.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var script []symtab.Sym
	open := func(name string) { script = append(script, sym(name)) }
	cl := func() { script = append(script, 0) }

	book := func(authors int, editor bool) {
		open("book")
		open("@year")
		cl()
		open("title")
		cl()
		for i := 0; i < authors; i++ {
			open("author")
			open("last")
			cl()
			open("first")
			cl()
			cl()
		}
		if editor {
			open("editor")
			open("last")
			cl()
			open("first")
			cl()
			open("affiliation")
			cl()
			cl()
		}
		open("publisher")
		cl()
		open("price")
		cl()
		cl()
	}
	open("bib")
	book(1, false)
	book(1, false)
	book(3, false)
	book(0, true)
	cl()
	return script
}

// randomScript produces a well-formed random tree with n nodes and up to
// maxTags distinct symbols.
func randomScript(rng *rand.Rand, n, maxTags int) []symtab.Sym {
	var script []symtab.Sym
	var emit func(budget int) int
	emit = func(budget int) int {
		if budget <= 0 {
			return 0
		}
		script = append(script, symtab.Sym(1+rng.Intn(maxTags)))
		used := 1
		kids := rng.Intn(5)
		for i := 0; i < kids && used < budget; i++ {
			used += emit((budget - used + kids - 1) / (kids - i))
		}
		script = append(script, 0)
		return used
	}
	emit(n)
	return script
}

// buildStore materializes a script into a fresh store.
func buildStore(t *testing.T, script []symtab.Sym, pageSize, reservePct int) (*Store, *pager.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.st")
	pf, err := pager.Create(path, &pager.Options{PageSize: pageSize, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	b, err := NewBuilder(pf, &BuilderOptions{ReservePct: reservePct})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range script {
		if tok == 0 {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := b.Open(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s, pf
}

// scanPositions returns the Pos of every node in document order.
func scanPositions(t *testing.T, s *Store) []Pos {
	t.Helper()
	var out []Pos
	err := s.Scan(func(pos Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		out = append(out, pos)
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// crossCheck verifies every navigation primitive against the model.
func crossCheck(t *testing.T, s *Store, script []symtab.Sym) {
	t.Helper()
	root := buildModel(script)
	var nodes []*modelNode
	preorder(root, &nodes)

	positions := scanPositions(t, s)
	if len(positions) != len(nodes) {
		t.Fatalf("Scan found %d nodes, model has %d", len(positions), len(nodes))
	}

	// Scan must agree on symbol, level and Dewey ID.
	i := 0
	err := s.Scan(func(pos Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		m := nodes[i]
		if sym != m.sym {
			t.Fatalf("node %d: sym %d, model %d", i, sym, m.sym)
		}
		if level != m.level {
			t.Fatalf("node %d: level %d, model %d", i, level, m.level)
		}
		if dewey.Compare(id, m.id) != 0 {
			t.Fatalf("node %d: dewey %s, model %s", i, id, m.id)
		}
		i++
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// FirstChild / FollowingSibling / SubtreeEnd / LevelAt / SymAt.
	for i, m := range nodes {
		pos := positions[i]
		if got, err := s.SymAt(pos); err != nil || got != m.sym {
			t.Fatalf("SymAt(%v) = %d,%v, want %d", pos, got, err, m.sym)
		}
		if got, err := s.LevelAt(pos); err != nil || got != m.level {
			t.Fatalf("LevelAt(%v) = %d,%v, want %d", pos, got, err, m.level)
		}
		fc, ok, err := s.FirstChild(pos)
		if err != nil {
			t.Fatalf("FirstChild(%v): %v", pos, err)
		}
		if len(m.children) == 0 {
			if ok {
				t.Fatalf("FirstChild(%v) = %v, model says leaf", pos, fc)
			}
		} else {
			want := positions[m.children[0].order]
			if !ok || fc != want {
				t.Fatalf("FirstChild(%v) = %v,%v, want %v", pos, fc, ok, want)
			}
		}
		fs, ok, err := s.FollowingSibling(pos, true, nil)
		if err != nil {
			t.Fatalf("FollowingSibling(%v): %v", pos, err)
		}
		var wantSib *modelNode
		if m.parent != nil {
			sibs := m.parent.children
			for j, c := range sibs {
				if c == m && j+1 < len(sibs) {
					wantSib = sibs[j+1]
				}
			}
		}
		if wantSib == nil {
			if ok {
				t.Fatalf("FollowingSibling(%v) = %v, model says none", pos, fs)
			}
		} else {
			want := positions[wantSib.order]
			if !ok || fs != want {
				t.Fatalf("FollowingSibling(%v) = %v,%v, want %v", pos, fs, ok, want)
			}
		}
		// Navigation without page skipping must agree exactly.
		fs2, ok2, err := s.FollowingSibling(pos, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok2 != ok || (ok && fs2 != fs) {
			t.Fatalf("FollowingSibling(%v, skip=false) disagrees: %v,%v vs %v,%v", pos, fs2, ok2, fs, ok)
		}
	}

	// Interval containment must mirror ancestor relations.
	ivs := make([]Interval, len(nodes))
	for i := range nodes {
		iv, err := s.Interval(positions[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		ivs[i] = iv
	}
	for i, a := range nodes {
		for j, b := range nodes {
			wantContain := a.id.IsAncestorOf(b.id)
			if got := ivs[i].Contains(ivs[j]); got != wantContain {
				t.Fatalf("Interval containment (%s, %s) = %v, want %v", a.id, b.id, got, wantContain)
			}
		}
	}
}

// ---- tests -------------------------------------------------------------------

func TestPaperExampleSmallPages(t *testing.T) {
	tab := symtab.New()
	script := paperScript(t, tab)
	// 20-byte content pages as in Figure 4's illustration is below our
	// minimum page size; 128-byte pages with a 16-byte header still force
	// the string across several pages.
	s, _ := buildStore(t, script, 128, 20)
	if s.NodeCount() != uint64(len(script)/2) {
		t.Errorf("NodeCount = %d, want %d", s.NodeCount(), len(script)/2)
	}
	if s.MaxLevel() != 4 {
		t.Errorf("MaxLevel = %d, want 4", s.MaxLevel())
	}
	if s.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", s.NumPages())
	}
	crossCheck(t, s, script)

	// Figure 4 rendering sanity: starts with "bib book @year)…".
	str, err := s.String(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(str, "bib book @year )title )") {
		t.Errorf("String() = %q…", str[:40])
	}
}

func TestStringRepresentationSizes(t *testing.T) {
	tab := symtab.New()
	script := paperScript(t, tab)
	s, _ := buildStore(t, script, 4096, 20)
	n := uint64(len(script) / 2)
	want := n*OpenTokenSize + n*CloseTokenSize
	if s.TokenBytes() != want {
		t.Errorf("TokenBytes = %d, want %d (3 bytes per node, §4.2)", s.TokenBytes(), want)
	}
}

func TestCapacityFormula(t *testing.T) {
	// §4.2: C = (B×(1−r) − V − I) / (S+P) ≈ 1000+ for 4KB pages. Our
	// header folds V and I into 16 bytes.
	s, _ := buildStore(t, []symtab.Sym{1, 0}, 4096, 20)
	if c := s.Capacity(); c < 1000 || c > 1400 {
		t.Errorf("Capacity = %d, want ≈(4096−16)/3", c)
	}
}

func TestRandomTreesAcrossPageSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, pageSize := range []int{128, 256, 512} {
		for trial := 0; trial < 4; trial++ {
			n := 50 + rng.Intn(400)
			script := randomScript(rng, n, 20)
			t.Run(fmt.Sprintf("ps%d/n%d", pageSize, len(script)/2), func(t *testing.T) {
				s, _ := buildStore(t, script, pageSize, 20)
				crossCheck(t, s, script)
			})
		}
	}
}

func TestDeepTree(t *testing.T) {
	// A path of 200 nodes: every page transition is a level change.
	var script []symtab.Sym
	for i := 0; i < 200; i++ {
		script = append(script, symtab.Sym(1+i%5))
	}
	for i := 0; i < 200; i++ {
		script = append(script, 0)
	}
	s, _ := buildStore(t, script, 128, 10)
	if s.MaxLevel() != 200 {
		t.Errorf("MaxLevel = %d", s.MaxLevel())
	}
	crossCheck(t, s, script)
}

func TestWideTree(t *testing.T) {
	// Root with 500 leaf children: FollowingSibling crosses many pages.
	script := []symtab.Sym{1}
	for i := 0; i < 500; i++ {
		script = append(script, symtab.Sym(2+i%3), 0)
	}
	script = append(script, 0)
	s, _ := buildStore(t, script, 128, 20)
	crossCheck(t, s, script)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	tab := symtab.New()
	script := paperScript(t, tab)
	path := filepath.Join(t.TempDir(), "persist.st")
	pf, err := pager.Create(path, &pager.Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(pf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range script {
		if tok == 0 {
			err = b.Close()
		} else {
			_, err = b.Open(tok)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := s.NodeCount()
	wantPages := s.NumPages()
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf2, err := pager.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	s2, err := Open(pf2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NodeCount() != wantNodes || s2.NumPages() != wantPages {
		t.Errorf("after reopen: %d nodes %d pages, want %d / %d",
			s2.NodeCount(), s2.NumPages(), wantNodes, wantPages)
	}
	crossCheck(t, s2, script)
}

func TestOpenRejectsNonStore(t *testing.T) {
	pf, err := pager.Create(filepath.Join(t.TempDir(), "x.pg"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if _, err := Open(pf); err == nil {
		t.Error("Open of non-store should fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	pf, err := pager.Create(filepath.Join(t.TempDir(), "b.pg"), &pager.Options{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	b, err := NewBuilder(pf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err == nil {
		t.Error("Close before Open should fail")
	}
	if _, err := b.Open(0); err == nil {
		t.Error("Open(0) should fail")
	}
	if _, err := b.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Error("Finish with unclosed element should fail")
	}
}

func TestPageSkipReducesIO(t *testing.T) {
	// A root with two children where the first child has a huge subtree:
	// finding the root child's following sibling should skip the interior
	// pages of that subtree.
	script := []symtab.Sym{1, 2}
	for i := 0; i < 2000; i++ {
		script = append(script, 3, 0)
	}
	script = append(script, 0, 4, 0, 0) // close child-1, open+close child-2, close root
	s, pf := buildStore(t, script, 256, 10)

	positions := scanPositions(t, s)
	child1 := positions[1]

	drainCaches := func() {
		s.levels.invalidateAll()
		// Force the buffer pool to forget by reading a fresh store view:
		// simplest is to reset the stats and count physical reads of a
		// fresh traversal; the pool is large, so instead compare *page
		// accesses* via the level computation path below.
	}
	drainCaches()
	pf.ResetStats()
	if _, _, err := s.FollowingSibling(child1, true, nil); err != nil {
		t.Fatal(err)
	}
	withSkip := pf.Stats().PhysicalReads + pf.Stats().CacheHits

	drainCaches()
	pf.ResetStats()
	if _, _, err := s.FollowingSibling(child1, false, nil); err != nil {
		t.Fatal(err)
	}
	withoutSkip := pf.Stats().PhysicalReads + pf.Stats().CacheHits

	if withSkip*2 >= withoutSkip {
		t.Errorf("page accesses with skip = %d, without = %d; expected a large reduction",
			withSkip, withoutSkip)
	}
}

func TestHeaderBytesSmall(t *testing.T) {
	script := []symtab.Sym{1}
	for i := 0; i < 3000; i++ {
		script = append(script, 2, 0)
	}
	script = append(script, 0)
	s, _ := buildStore(t, script, 256, 20)
	// The header table must be a tiny fraction of the stored bytes.
	if s.HeaderBytes() > int(s.TokenBytes())/4 {
		t.Errorf("HeaderBytes = %d vs TokenBytes %d", s.HeaderBytes(), s.TokenBytes())
	}
}

// TestConcurrentNavigation runs parallel walkers over one store (queries
// are concurrent in the public API); run with -race.
func TestConcurrentNavigation(t *testing.T) {
	tab := symtab.New()
	script := paperScript(t, tab)
	s, _ := buildStore(t, script, 128, 20)
	positions := scanPositions(t, s)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := positions[(seed*13+i*7)%len(positions)]
				if _, err := s.LevelAt(p); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.FirstChild(p); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.FollowingSibling(p, true, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SubtreeEnd(p, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
