package stree

import (
	"math/rand"
	"testing"

	"nok/internal/dewey"
	"nok/internal/symtab"
)

// scanScript reconstructs the token script from the store by a full scan
// plus subtree ends; used to verify updates against model surgery.
func scanScript(t *testing.T, s *Store) []symtab.Sym {
	t.Helper()
	type ev struct {
		pos uint64
		sym symtab.Sym // 0 = close
	}
	var evs []ev
	err := s.Scan(func(pos Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		end, err := s.SubtreeEnd(pos, nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev{pos.DocPos(), sym}, ev{end.DocPos(), 0})
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sort by document position; opens and closes interleave correctly
	// because DocPos is unique per token.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].pos < evs[j-1].pos; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	out := make([]symtab.Sym, len(evs))
	for i, e := range evs {
		out[i] = e.sym
	}
	return out
}

func encode(t *testing.T, script []symtab.Sym) []byte {
	t.Helper()
	var e SubtreeEncoder
	for _, tok := range script {
		var err error
		if tok == 0 {
			err = e.Close()
		} else {
			err = e.Open(tok)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func scriptsEqual(a, b []symtab.Sym) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertChildAtLeafFastPath(t *testing.T) {
	// The paper's example: insert ab)c)) as a subtree of a leaf. Generous
	// reserve so the fast (in-page) path is taken.
	script := []symtab.Sym{1, 2, 0, 3, 0, 0} // a(b)(c)
	s, _ := buildStore(t, script, 4096, 50)
	positions := scanPositions(t, s)
	bLeaf := positions[1]

	sub := encode(t, []symtab.Sym{4, 5, 0, 6, 0, 0}) // x(y)(z)
	pagesBefore := s.NumPages()
	if err := s.InsertChild(bLeaf, sub); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != pagesBefore {
		t.Errorf("fast-path insert allocated pages: %d -> %d", pagesBefore, s.NumPages())
	}
	want := []symtab.Sym{1, 2, 4, 5, 0, 6, 0, 0, 0, 3, 0, 0}
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Errorf("after insert: %v, want %v", got, want)
	}
	if s.NodeCount() != 6 {
		t.Errorf("NodeCount = %d, want 6", s.NodeCount())
	}
	crossCheck(t, s, want)
}

func TestInsertChildAtNonLeaf(t *testing.T) {
	// Inserting under a non-leaf node appends after its existing children
	// (before its close token), the §4.2 "insert between root and child"
	// case generalized.
	script := []symtab.Sym{1, 2, 3, 0, 0, 4, 0, 0}
	s, _ := buildStore(t, script, 4096, 50)
	positions := scanPositions(t, s)
	root := positions[0]

	sub := encode(t, []symtab.Sym{5, 0})
	if err := s.InsertChild(root, sub); err != nil {
		t.Fatal(err)
	}
	want := []symtab.Sym{1, 2, 3, 0, 0, 4, 0, 5, 0, 0}
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Errorf("after insert: %v, want %v", got, want)
	}
	crossCheck(t, s, want)
}

func TestInsertBefore(t *testing.T) {
	script := []symtab.Sym{1, 2, 0, 3, 0, 0}
	s, _ := buildStore(t, script, 4096, 50)
	positions := scanPositions(t, s)
	cNode := positions[2]

	sub := encode(t, []symtab.Sym{7, 0})
	if err := s.InsertBefore(cNode, sub); err != nil {
		t.Fatal(err)
	}
	want := []symtab.Sym{1, 2, 0, 7, 0, 3, 0, 0}
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Errorf("after insert: %v, want %v", got, want)
	}
	crossCheck(t, s, want)
}

func TestInsertBeforeRootRejected(t *testing.T) {
	s, _ := buildStore(t, []symtab.Sym{1, 0}, 4096, 50)
	root, err := s.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBefore(root, encode(t, []symtab.Sym{2, 0})); err == nil {
		t.Error("inserting a sibling of the root should fail")
	}
}

func TestInsertUnbalancedRejected(t *testing.T) {
	s, _ := buildStore(t, []symtab.Sym{1, 2, 0, 0}, 4096, 50)
	positions := scanPositions(t, s)
	for _, bad := range [][]byte{
		{0, 3},               // open without close
		{CloseByte},          // bare close
		{0, 3, CloseByte, 0}, // truncated trailing open
		{},                   // empty
	} {
		if err := s.InsertChild(positions[1], bad); err == nil {
			t.Errorf("unbalanced tokens %v accepted", bad)
		}
	}
}

func TestInsertSplitsPage(t *testing.T) {
	// Zero reserve and a big insertion force the cut-and-paste slow path.
	script := []symtab.Sym{1}
	for i := 0; i < 100; i++ {
		script = append(script, 2, 0)
	}
	script = append(script, 0)
	s, _ := buildStore(t, script, 128, 0)
	positions := scanPositions(t, s)
	target := positions[50]

	// Insert a subtree with 40 nodes under a mid-document leaf.
	var subScript []symtab.Sym
	subScript = append(subScript, 9)
	for i := 0; i < 39; i++ {
		subScript = append(subScript, 10, 0)
	}
	subScript = append(subScript, 0)
	sub := encode(t, subScript)

	pagesBefore := s.NumPages()
	if err := s.InsertChild(target, sub); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() <= pagesBefore {
		t.Errorf("slow-path insert did not allocate pages (%d -> %d)", pagesBefore, s.NumPages())
	}

	// Model surgery: the 50th b (preorder index 50) gains the subtree
	// before its close token. Its open sits at script index 1+49*2 = 99.
	cut := 1 + 49*2 + 1
	want := make([]symtab.Sym, 0, len(script)+len(subScript))
	want = append(want, script[:cut]...)
	want = append(want, subScript...)
	want = append(want, script[cut:]...)
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Fatalf("after split insert, script mismatch\ngot  %v\nwant %v", got, want)
	}
	crossCheck(t, s, want)
}

func TestDeleteSubtreeSinglePage(t *testing.T) {
	script := []symtab.Sym{1, 2, 3, 0, 0, 4, 0, 0}
	s, _ := buildStore(t, script, 4096, 20)
	positions := scanPositions(t, s)

	if err := s.DeleteSubtree(positions[1]); err != nil { // delete 2(3)
		t.Fatal(err)
	}
	want := []symtab.Sym{1, 4, 0, 0}
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Errorf("after delete: %v, want %v", got, want)
	}
	if s.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", s.NodeCount())
	}
	crossCheck(t, s, want)
}

func TestDeleteSubtreeSpanningPages(t *testing.T) {
	// Large middle subtree spanning many small pages.
	script := []symtab.Sym{1, 2, 0, 3}
	for i := 0; i < 500; i++ {
		script = append(script, 4, 0)
	}
	script = append(script, 0, 5, 0, 0)
	s, _ := buildStore(t, script, 128, 10)
	positions := scanPositions(t, s)
	big := positions[2] // the node with sym 3

	pagesBefore := s.NumPages()
	if err := s.DeleteSubtree(big); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() >= pagesBefore {
		t.Errorf("deleting a page-spanning subtree should free pages (%d -> %d)",
			pagesBefore, s.NumPages())
	}
	want := []symtab.Sym{1, 2, 0, 5, 0, 0}
	if got := scanScript(t, s); !scriptsEqual(got, want) {
		t.Errorf("after delete: %v, want %v", got, want)
	}
	crossCheck(t, s, want)
}

func TestDeleteRoot(t *testing.T) {
	script := []symtab.Sym{1, 2, 0, 0}
	s, _ := buildStore(t, script, 256, 20)
	root, err := s.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSubtree(root); err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != 0 {
		t.Errorf("NodeCount = %d after deleting root", s.NodeCount())
	}
	if _, err := s.Root(); err == nil {
		t.Error("Root() should fail on an emptied store")
	}
	// The store must accept a fresh document via insert-into-empty? Not
	// supported; emptied stores are rebuilt. Verify Scan is a no-op.
	n := 0
	if err := s.Scan(func(Pos, symtab.Sym, int, dewey.ID) bool { n++; return true }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("Scan visited %d nodes on empty store", n)
	}
}

func TestRandomizedUpdateStorm(t *testing.T) {
	// Random inserts and deletes cross-checked against model surgery on
	// the script level, across page sizes that force both update paths.
	rng := rand.New(rand.NewSource(77))
	for _, pageSize := range []int{128, 512} {
		script := randomScript(rng, 120, 8)
		s, _ := buildStore(t, script, pageSize, 20)
		for step := 0; step < 25; step++ {
			positions := scanPositions(t, s)
			if len(positions) <= 1 {
				break
			}
			idx := rng.Intn(len(positions))
			if rng.Intn(2) == 0 && idx > 0 {
				// Delete a non-root subtree.
				if err := s.DeleteSubtree(positions[idx]); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
				script = deleteFromScript(script, idx)
			} else {
				sub := randomScript(rng, 1+rng.Intn(20), 8)
				if err := s.InsertChild(positions[idx], encode(t, sub)); err != nil {
					t.Fatalf("step %d insert: %v", step, err)
				}
				script = insertIntoScript(script, idx, sub)
			}
			if got := scanScript(t, s); !scriptsEqual(got, script) {
				t.Fatalf("step %d: script diverged (pageSize %d)", step, pageSize)
			}
		}
		crossCheck(t, s, script)
	}
}

// scriptNodeRange returns the token range [open, closeIdx] of the idx-th
// node (preorder) in script.
func scriptNodeRange(script []symtab.Sym, idx int) (int, int) {
	seen := -1
	for i, tok := range script {
		if tok != 0 {
			seen++
			if seen == idx {
				depth := 0
				for j := i; j < len(script); j++ {
					if script[j] != 0 {
						depth++
					} else {
						depth--
						if depth == 0 {
							return i, j
						}
					}
				}
			}
		}
	}
	return -1, -1
}

func deleteFromScript(script []symtab.Sym, idx int) []symtab.Sym {
	i, j := scriptNodeRange(script, idx)
	out := append([]symtab.Sym(nil), script[:i]...)
	return append(out, script[j+1:]...)
}

func insertIntoScript(script []symtab.Sym, idx int, sub []symtab.Sym) []symtab.Sym {
	_, j := scriptNodeRange(script, idx) // insert before close of node idx
	out := append([]symtab.Sym(nil), script[:j]...)
	out = append(out, sub...)
	return append(out, script[j:]...)
}
