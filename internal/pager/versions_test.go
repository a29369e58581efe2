package pager

import (
	"errors"
	"path/filepath"
	"testing"
)

// newVersioned creates a versioned file with an initial committed epoch 1
// containing n pages, each filled with its logical id. Returns the file and
// the epoch-1 sidecar bytes.
func newVersioned(t testing.TB, n int) (*File, []byte) {
	t.Helper()
	pf, err := Create(filepath.Join(t.TempDir(), "v.pg"), &Options{PageSize: MinPageSize, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	if err := pf.InitVersioning(); err != nil {
		t.Fatal(err)
	}
	if err := pf.BeginCOW(1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.ID() != PageID(i) {
			t.Fatalf("allocated logical %d, want %d", p.ID(), i)
		}
		fill(p.Data(), byte(i))
		p.MarkDirty()
		pf.Unpin(p)
	}
	side, err := pf.SealCOW()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Publish(); err != nil {
		t.Fatal(err)
	}
	return pf, side
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func checkFilled(t *testing.T, b []byte, v byte, what string) {
	t.Helper()
	for i := range b {
		if b[i] != v {
			t.Fatalf("%s: byte %d is %d, want %d", what, i, b[i], v)
		}
	}
}

func TestCOWSnapshotIsolation(t *testing.T) {
	pf, _ := newVersioned(t, 3)

	snap, err := pf.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 1 {
		t.Fatalf("snapshot epoch %d, want 1", snap.Epoch())
	}

	// Epoch 2 rewrites page 2 and frees page 3.
	if err := pf.BeginCOW(2); err != nil {
		t.Fatal(err)
	}
	p, err := pf.GetMut(2)
	if err != nil {
		t.Fatal(err)
	}
	fill(p.Data(), 0xee)
	p.MarkDirty()
	pf.Unpin(p)
	if err := pf.Free(3); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.SealCOW(); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Publish(); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the epoch-1 images, including the freed page.
	for i := 1; i <= 3; i++ {
		p, err := snap.Get(PageID(i))
		if err != nil {
			t.Fatalf("snapshot get %d: %v", i, err)
		}
		checkFilled(t, p.Data(), byte(i), "snapshot page")
		snap.Unpin(p)
	}
	// The writer's view sees the new epoch.
	p, err = pf.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, p.Data(), 0xee, "current page 2")
	pf.Unpin(p)
	if _, err := pf.Get(3); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("current get of freed page: err=%v, want ErrPageOutOfRange", err)
	}

	// Epoch 1 is destroyed when the snapshot releases; its private pages
	// (old physical of logical 2, and logical 3's page) become free.
	if got := pf.VersionInfo().LiveVersions; got != 2 {
		t.Fatalf("live versions %d, want 2", got)
	}
	snap.Release()
	vi := pf.VersionInfo()
	if vi.LiveVersions != 1 {
		t.Fatalf("live versions after release %d, want 1", vi.LiveVersions)
	}
	if vi.FreePhysical != 2 {
		t.Fatalf("free physical %d, want 2", vi.FreePhysical)
	}

	// The next epoch recycles those physicals instead of growing the file.
	before := pf.NumPages()
	if err := pf.BeginCOW(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.MarkDirty()
		pf.Unpin(p)
	}
	if _, err := pf.SealCOW(); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Publish(); err != nil {
		t.Fatal(err)
	}
	if pf.NumPages() != before {
		t.Fatalf("file grew to %d pages, want reuse at %d", pf.NumPages(), before)
	}
}

func TestCOWAbortRollsBack(t *testing.T) {
	pf, _ := newVersioned(t, 2)
	if err := pf.BeginCOW(2); err != nil {
		t.Fatal(err)
	}
	p, err := pf.GetMut(1)
	if err != nil {
		t.Fatal(err)
	}
	fill(p.Data(), 0xaa)
	p.MarkDirty()
	pf.Unpin(p)
	fresh, err := pf.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fresh.MarkDirty()
	pf.Unpin(fresh)
	if err := pf.AbortCOW(); err != nil {
		t.Fatal(err)
	}
	p, err = pf.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, p.Data(), 1, "page 1 after abort")
	pf.Unpin(p)
	if pf.VersionInfo().Epoch != 1 {
		t.Fatalf("epoch advanced past abort: %d", pf.VersionInfo().Epoch)
	}
	if pf.InCOW() {
		t.Fatal("transaction still open after abort")
	}
}

func TestInstallVersionDerivesFreeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pg")
	pf, err := Create(path, &Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.InitVersioning(); err != nil {
		t.Fatal(err)
	}
	if err := pf.BeginCOW(1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		p, err := pf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fill(p.Data(), byte(i))
		p.MarkDirty()
		pf.Unpin(p)
	}
	side, err := pf.SealCOW()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Publish(); err != nil {
		t.Fatal(err)
	}

	// A second, uncommitted transaction dirties pages and grows the file —
	// then the process "crashes" (close without publish).
	if err := pf.BeginCOW(2); err != nil {
		t.Fatal(err)
	}
	p, err := pf.GetMut(3)
	if err != nil {
		t.Fatal(err)
	}
	fill(p.Data(), 0xbb)
	p.MarkDirty()
	pf.Unpin(p)
	if err := pf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the committed epoch-1 sidecar: the COW copy is orphaned
	// and swept into the free list; committed pages read back intact.
	pf2, err := Open(path, &Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	epoch, err := pf2.InstallVersion(side)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("installed epoch %d, want 1", epoch)
	}
	if got := pf2.OrphanPhysicalPages(); got != 1 {
		t.Fatalf("orphan physical pages %d, want 1", got)
	}
	for i := 1; i <= 4; i++ {
		p, err := pf2.Get(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		checkFilled(t, p.Data(), byte(i), "reopened page")
		pf2.Unpin(p)
	}
	issues := 0
	if _, err := pf2.VerifyVersionPages(func(PageID, error) { issues++ }); err != nil {
		t.Fatal(err)
	}
	if issues != 0 {
		t.Fatalf("verify found %d issues on committed pages", issues)
	}
}

func TestBeginCOWTwiceRejected(t *testing.T) {
	pf, _ := newVersioned(t, 1)
	if err := pf.BeginCOW(2); err != nil {
		t.Fatal(err)
	}
	if err := pf.BeginCOW(3); !errors.Is(err, ErrInTx) {
		t.Errorf("second BeginCOW: err = %v, want ErrInTx", err)
	}
	if _, err := pf.SealCOW(); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Publish(); err != nil {
		t.Fatal(err)
	}
}
