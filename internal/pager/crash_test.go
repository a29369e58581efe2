package pager

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fillPage writes a recognizable pattern into a fresh page and returns its id.
func fillPage(t *testing.T, pf *File, tag string) PageID {
	t.Helper()
	p, err := pf.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data() {
		p.Data()[i] = byte(i)
	}
	copy(p.Data(), tag)
	p.MarkDirty()
	id := p.ID()
	pf.Unpin(p)
	return id
}

func TestChecksumDetectsFlippedPayloadByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.pg")
	pf, err := Create(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	id := fillPage(t, pf, "payload")
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	phys := 256 + TrailerLen
	raw[int(id)*phys+10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pf, err = Open(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	_, err = pf.Get(id)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("Get on damaged page: err = %v, want ErrChecksum", err)
	}
	if err != nil && !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("page %d", id))) {
		t.Errorf("error does not name the page: %v", err)
	}
}

func TestChecksumDetectsFlippedTrailerByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.pg")
	pf, err := Create(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	id := fillPage(t, pf, "payload")
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	phys := 256 + TrailerLen
	raw[int(id)*phys+256] ^= 0xFF // first CRC byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err = Open(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if _, err := pf.Get(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Get with damaged trailer: err = %v, want ErrChecksum", err)
	}
}

func TestVerifyPagesReportsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pg")
	pf, err := Create(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, fillPage(t, pf, fmt.Sprintf("p%d", i)))
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	phys := 256 + TrailerLen
	raw[int(ids[2])*phys+99] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pf, err = Open(path, &Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	var bad []PageID
	n, err := pf.VerifyPages(func(id PageID, err error) { bad = append(bad, id) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // header page + 4 data pages
		t.Errorf("checked %d pages, want 5", n)
	}
	if len(bad) != 1 || bad[0] != ids[2] {
		t.Errorf("damaged pages reported: %v, want [%d]", bad, ids[2])
	}
}
