package pager

import (
	"bytes"
	"testing"
)

// FuzzInstallVersion throws arbitrary bytes at the treemap sidecar decoder,
// which reads the committed page table back from disk at every store open.
// It must never panic, and any sidecar it accepts must re-seal through
// BeginCOW/SealCOW to exactly the same bytes: the same epoch, page table
// and meta.
func FuzzInstallVersion(f *testing.F) {
	pf, sidecar := newVersioned(f, 4)
	path := pf.Path()
	if err := pf.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(sidecar)
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := Open(path, &Options{PageSize: MinPageSize, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer pf.Close()
		epoch, err := pf.InstallVersion(data)
		if err != nil {
			return
		}
		if err := pf.BeginCOW(epoch); err != nil {
			t.Fatal(err)
		}
		resealed, err := pf.SealCOW()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resealed, data) {
			t.Fatalf("accepted sidecar does not re-seal to itself:\n in  %x\n out %x", data, resealed)
		}
	})
}
