package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"nok/internal/pager"
)

func newTree(t *testing.T, pageSize int) (*Tree, *pager.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.pg")
	pf, err := pager.Create(path, &pager.Options{PageSize: pageSize, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return tr, pf
}

// checkInvariants validates structural invariants: in-node ordering, key
// ranges implied by separators, uniform leaf depth, and leaf-chain
// consistency with the logical key order.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()

	var leaves []pager.PageID
	var walk func(id pager.PageID, level int, lo, hi []byte)
	walk = func(id pager.PageID, level int, lo, hi []byte) {
		p, err := tr.pf.Get(id)
		if err != nil {
			t.Fatalf("get page %d: %v", id, err)
		}
		defer tr.pf.Unpin(p)
		d := p.Data()
		n := nCells(d)
		wantType := byte(internalType)
		if level == 1 {
			wantType = leafType
		}
		if nodeType(d) != wantType {
			t.Fatalf("page %d at level %d has type %d", id, level, nodeType(d))
		}
		var prevKey []byte
		for i := 0; i < n; i++ {
			k := cellKey(d, i)
			if prevKey != nil && bytes.Compare(prevKey, k) >= 0 {
				t.Fatalf("page %d: keys out of order at slot %d", id, i)
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				t.Fatalf("page %d: key below subtree lower bound", id)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				t.Fatalf("page %d: key above subtree upper bound", id)
			}
			prevKey = append([]byte(nil), k...)
		}
		if level == 1 {
			leaves = append(leaves, id)
			return
		}
		childLo := lo
		for i := -1; i < n; i++ {
			var childHi []byte
			if i+1 < n {
				childHi = append([]byte(nil), cellKey(d, i+1)...)
			} else {
				childHi = hi
			}
			walk(childAt(d, i), level-1, childLo, childHi)
			if i+1 < n {
				childLo = append([]byte(nil), cellKey(d, i+1)...)
			}
		}
	}
	walk(tr.root, tr.height, nil, nil)

	// Leaf chain must visit exactly the leaves found by the tree walk, in
	// order, starting from the leftmost.
	if len(leaves) > 0 {
		id := leaves[0]
		for i, want := range leaves {
			if id != want {
				t.Fatalf("leaf chain diverges at %d: chain %d, tree %d", i, id, want)
			}
			p, err := tr.pf.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			id = nextPtr(p.Data())
			tr.pf.Unpin(p)
		}
		if id != pager.InvalidPage {
			t.Fatalf("leaf chain continues past the last tree leaf to %d", id)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 256)
	if tr.Count() != 0 {
		t.Errorf("Count = %d", tr.Count())
	}
	if _, ok, err := tr.Get([]byte("missing")); err != nil || ok {
		t.Errorf("Get on empty tree: ok=%v err=%v", ok, err)
	}
	it := tr.First()
	if it.Next() {
		t.Error("iterator on empty tree returned an item")
	}
	checkInvariants(t, tr)
}

func TestInsertGetSmall(t *testing.T) {
	tr, _ := newTree(t, 256)
	pairs := map[string]string{
		"book": "1", "author": "2", "title": "3", "price": "4", "year": "5",
	}
	for k, v := range pairs {
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != uint64(len(pairs)) {
		t.Errorf("Count = %d, want %d", tr.Count(), len(pairs))
	}
	for k, v := range pairs {
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Get(%q) = %q,%v,%v, want %q", k, got, ok, err, v)
		}
	}
	checkInvariants(t, tr)
}

func TestUpsertReplacesValue(t *testing.T) {
	tr, _ := newTree(t, 256)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.Insert([]byte("k"), []byte("old")))
	must(tr.Insert([]byte("k"), []byte("new"))) // same length: in-place
	got, _, _ := tr.Get([]byte("k"))
	if string(got) != "new" {
		t.Errorf("after same-size upsert: %q", got)
	}
	must(tr.Insert([]byte("k"), []byte("much longer value")))
	got, _, _ = tr.Get([]byte("k"))
	if string(got) != "much longer value" {
		t.Errorf("after growing upsert: %q", got)
	}
	must(tr.Insert([]byte("k"), []byte("s")))
	got, _, _ = tr.Get([]byte("k"))
	if string(got) != "s" {
		t.Errorf("after shrinking upsert: %q", got)
	}
	if tr.Count() != 1 {
		t.Errorf("Count = %d, want 1", tr.Count())
	}
	checkInvariants(t, tr)
}

func TestEmptyKeyRejected(t *testing.T) {
	tr, _ := newTree(t, 256)
	if err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key should be rejected")
	}
}

func TestItemTooLargeRejected(t *testing.T) {
	tr, _ := newTree(t, 256)
	if err := tr.Insert(bytes.Repeat([]byte("k"), 300), nil); err == nil {
		t.Error("oversized item should be rejected")
	}
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestManyInsertionsSequential(t *testing.T) {
	tr, _ := newTree(t, 256) // tiny pages force deep trees
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d; tiny pages should force a multi-level tree", tr.Height())
	}
	for i := 0; i < n; i++ {
		got, ok, err := tr.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q", i, got)
		}
	}
	checkInvariants(t, tr)
}

func TestManyInsertionsRandomOrder(t *testing.T) {
	tr, _ := newTree(t, 256)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), key(i*3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	checkInvariants(t, tr)
	for i := 0; i < n; i++ {
		got, ok, err := tr.Get(key(i))
		if err != nil || !ok || !bytes.Equal(got, key(i*3)) {
			t.Fatalf("Get(%d) = %x,%v,%v", i, got, ok, err)
		}
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr, _ := newTree(t, 512)
	rng := rand.New(rand.NewSource(11))
	want := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		v := make([]byte, rng.Intn(60))
		rng.Read(v)
		want[string(k)] = string(v)
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
	if tr.Count() != uint64(len(want)) {
		t.Errorf("Count = %d, want %d", tr.Count(), len(want))
	}
	for k, v := range want {
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%x): ok=%v err=%v", k, ok, err)
		}
	}
}

func TestIterationInOrder(t *testing.T) {
	tr, _ := newTree(t, 256)
	const n = 3000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.First()
	i := 0
	for it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("iteration item %d = %x, want %x", i, it.Key(), key(i))
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Errorf("iterated %d items, want %d", i, n)
	}
}

func TestSeek(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 1000; i += 2 { // even keys only
		if err := tr.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Seeking an absent odd key lands on the next even key.
	it := tr.Seek(key(501))
	if !it.Next() {
		t.Fatal("Seek(501).Next() = false")
	}
	if !bytes.Equal(it.Key(), key(502)) {
		t.Errorf("Seek(501) landed on %x, want %x", it.Key(), key(502))
	}
	// Seeking a present key lands exactly on it.
	it = tr.Seek(key(500))
	it.Next()
	if !bytes.Equal(it.Key(), key(500)) {
		t.Errorf("Seek(500) landed on %x", it.Key())
	}
	// Seeking past the end yields nothing.
	it = tr.Seek(key(2000))
	if it.Next() {
		t.Error("Seek past end returned an item")
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 300; i++ {
		if err := tr.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	err := tr.ScanRange(key(100), key(110), func(k, v []byte) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Errorf("ScanRange = %v", got)
	}

	// Prefix scan: composite keys tag‖pos, the multi-valued index pattern.
	tr2, _ := newTree(t, 256)
	for tag := 0; tag < 5; tag++ {
		for pos := 0; pos < 50; pos++ {
			k := append([]byte{byte(tag)}, key(pos)...)
			if err := tr2.Insert(k, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := 0
	prev := -1
	err = tr2.ScanPrefix([]byte{3}, func(k, v []byte) bool {
		pos := int(binary.BigEndian.Uint64(k[1:]))
		if pos <= prev {
			t.Errorf("prefix scan out of order: %d after %d", pos, prev)
		}
		prev = pos
		count++
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("ScanPrefix visited %d, want 50", count)
	}
}

func TestDeleteBasic(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete(key(50))
	if err != nil || !ok {
		t.Fatalf("Delete(50) = %v, %v", ok, err)
	}
	if _, found, _ := tr.Get(key(50)); found {
		t.Error("key 50 still present after delete")
	}
	if ok, _ := tr.Delete(key(50)); ok {
		t.Error("second delete of same key reported success")
	}
	if tr.Count() != 99 {
		t.Errorf("Count = %d, want 99", tr.Count())
	}
	checkInvariants(t, tr)
}

func TestDeleteEverything(t *testing.T) {
	tr, _ := newTree(t, 256)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		ok, err := tr.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if tr.Count() != 0 {
		t.Errorf("Count = %d after deleting everything", tr.Count())
	}
	if tr.Height() != 1 {
		t.Errorf("Height = %d after deleting everything, want 1", tr.Height())
	}
	it := tr.First()
	if it.Next() {
		t.Error("iterator returned an item after deleting everything")
	}
	checkInvariants(t, tr)
	// The tree must be fully usable again.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
}

func TestDeleteInterleavedWithInserts(t *testing.T) {
	tr, _ := newTree(t, 256)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 8000; step++ {
		i := rng.Intn(500)
		k := key(i)
		if rng.Intn(3) == 0 {
			delete(model, string(k))
			if _, err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		} else {
			v := fmt.Sprintf("val-%d-%d", i, step%7)
			model[string(k)] = v
			if err := tr.Insert(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Count() != uint64(len(model)) {
		t.Errorf("Count = %d, model has %d", tr.Count(), len(model))
	}
	checkInvariants(t, tr)
	// Verify exact contents via iteration.
	var modelKeys []string
	for k := range model {
		modelKeys = append(modelKeys, k)
	}
	sort.Strings(modelKeys)
	it := tr.First()
	i := 0
	for it.Next() {
		if i >= len(modelKeys) {
			t.Fatal("tree has more items than model")
		}
		if string(it.Key()) != modelKeys[i] {
			t.Fatalf("item %d key = %x, want %x", i, it.Key(), modelKeys[i])
		}
		if string(it.Value()) != model[modelKeys[i]] {
			t.Fatalf("item %d value mismatch", i)
		}
		i++
	}
	if i != len(modelKeys) {
		t.Fatalf("tree has %d items, model %d", i, len(modelKeys))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.pg")
	pf, err := pager.Create(path, &pager.Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), key(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf2, err := pager.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	tr2, err := Open(pf2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != n {
		t.Errorf("Count after reopen = %d", tr2.Count())
	}
	for i := 0; i < n; i += 37 {
		got, ok, err := tr2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(got, key(i*2)) {
			t.Fatalf("Get(%d) after reopen: %x,%v,%v", i, got, ok, err)
		}
	}
	checkInvariants(t, tr2)
}

func TestOpenRejectsNonTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pg")
	pf, err := pager.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if _, err := Open(pf); err == nil {
		t.Error("Open of a pager file without tree meta should fail")
	}
}

func TestLargeValuesNearLimit(t *testing.T) {
	tr, _ := newTree(t, 4096)
	max := tr.maxItemSize()
	v := bytes.Repeat([]byte("x"), max-20)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(key(i), v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	checkInvariants(t, tr)
	got, ok, err := tr.Get(key(25))
	if err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatal("large value round trip failed")
	}
}
