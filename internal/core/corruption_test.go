package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nok/internal/pager"
	"nok/internal/samples"
	"nok/internal/vfs"
	"nok/internal/vstore"
)

// buildDir loads the bibliography into a fresh directory and closes it.
func buildDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// storeFiles resolves the store's physical file name for every manifest
// role (names are epoch-suffixed for the rebuilt-on-update files).
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	m, err := readManifest(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(m.Files))
	for role, rec := range m.Files {
		out[role] = rec.Name
	}
	return out
}

// TestOpenFailsCleanlyOnCorruption damages each store file in turn; Open
// (or the first query) must return an error, never panic, and never
// return wrong data silently for structural corruption.
func TestOpenFailsCleanlyOnCorruption(t *testing.T) {
	for _, role := range allRoles {
		role := role
		t.Run("truncate-"+role, func(t *testing.T) {
			dir := buildDir(t)
			path := filepath.Join(dir, storeFiles(t, dir)[role])
			if err := os.Truncate(path, 3); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir, nil)
			if err == nil {
				// Some truncations only surface at query time; that is
				// acceptable as long as it is an error, not a panic.
				defer db.Close()
				_, _, qerr := db.Query(samples.PaperQuery, nil)
				if qerr == nil {
					t.Errorf("truncated %s: no error surfaced", role)
				}
				return
			}
			if !errors.Is(err, ErrTruncatedFile) {
				t.Logf("truncated %s: err = %v (not ErrTruncatedFile, acceptable if typed elsewhere)", role, err)
			}
		})
		t.Run("missing-"+role, func(t *testing.T) {
			dir := buildDir(t)
			if err := os.Remove(filepath.Join(dir, storeFiles(t, dir)[role])); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir, nil)
			if err == nil {
				db.Close()
				t.Fatalf("missing %s: Open succeeded", role)
			}
			if !errors.Is(err, ErrMissingFile) && !errors.Is(err, os.ErrNotExist) {
				t.Errorf("missing %s: err = %v, want ErrMissingFile", role, err)
			}
		})
	}
}

// TestOpenCorruptedFixtures is the satellite fixture table: each named
// corruption must fail Open (or Verify) with a typed, actionable error.
func TestOpenCorruptedFixtures(t *testing.T) {
	type fixture struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr []error // any match passes (errors.Is)
	}
	fixtures := []fixture{
		{
			name: "truncated-pager-file",
			corrupt: func(t *testing.T, dir string) {
				// Cut the tree file below its committed length.
				path := filepath.Join(dir, storeFiles(t, dir)[roleTree])
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{ErrTruncatedFile},
		},
		{
			name: "flipped-byte-in-page-body",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, storeFiles(t, dir)[roleTree])
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Flip one byte inside the first data page's payload.
				pos := pager.DefaultPageSize + pager.TrailerLen + 7
				if pos >= len(raw) {
					t.Fatalf("tree file only %d bytes", len(raw))
				}
				raw[pos] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{pager.ErrChecksum},
		},
		{
			name: "stale-manifest",
			corrupt: func(t *testing.T, dir string) {
				// Keep an old manifest while the files move on: point the
				// manifest at an epoch whose files were swept.
				m, err := readManifest(vfs.OS, dir)
				if err != nil {
					t.Fatal(err)
				}
				m.Epoch++
				for _, role := range []string{roleTags, roleStats, roleTagIdx, roleValIdx, roleDewIdx, rolePathIdx} {
					rec := m.Files[role]
					rec.Name = epochFileName(role, m.Epoch)
					m.Files[role] = rec
				}
				if err := writeManifest(vfs.OS, dir, m); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{ErrMissingFile},
		},
		{
			name: "missing-value-file",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, storeFiles(t, dir)[roleValues])); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{ErrMissingFile},
		},
		{
			name: "corrupt-manifest",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, ManifestName)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{ErrManifestCorrupt},
		},
		{
			name: "no-manifest",
			corrupt: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{ErrNoManifest},
		},
		{
			name: "corrupt-value-header",
			corrupt: func(t *testing.T, dir string) {
				path := filepath.Join(dir, storeFiles(t, dir)[roleValues])
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{0xDE, 0xAD}, 4); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: []error{vstore.ErrBadHeader},
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			dir := buildDir(t)
			fx.corrupt(t, dir)
			db, err := Open(dir, nil)
			if err == nil {
				db.Close()
				t.Fatalf("%s: Open succeeded", fx.name)
			}
			for _, want := range fx.wantErr {
				if errors.Is(err, want) {
					return
				}
			}
			t.Errorf("%s: err = %v, want one of %v", fx.name, err, fx.wantErr)
		})
	}
}

func TestGarbageOverwrite(t *testing.T) {
	for _, role := range []string{roleTree, roleTagIdx} {
		role := role
		t.Run(role, func(t *testing.T) {
			dir := buildDir(t)
			name := storeFiles(t, dir)[role]
			if err := os.WriteFile(filepath.Join(dir, name),
				[]byte(strings.Repeat("garbage!", 512)), 0o644); err != nil {
				t.Fatal(err)
			}
			if db, err := Open(dir, nil); err == nil {
				db.Close()
				t.Errorf("garbage %s accepted by Open", name)
			}
		})
	}
}

// TestMissingValuesFile: values.dat holds content only; opening without it
// must fail (it is part of the store's contract).
func TestMissingValuesFile(t *testing.T) {
	dir := buildDir(t)
	if err := os.Remove(filepath.Join(dir, "values.dat")); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(dir, nil); err == nil {
		db.Close()
		t.Error("missing values.dat: Open succeeded")
	}
}

// TestUpdateEpochSwitch: an insert commits epoch 2; a clean reopen reports
// no recovery, resolves the epoch-2 files through the manifest and finds
// the epoch-1 files swept.
func TestUpdateEpochSwitch(t *testing.T) {
	dir := buildDir(t)
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", db.Epoch())
	}
	before, _, err := db.Query(samples.PaperQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader("<note><title>x</title></note>")); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 2 {
		t.Errorf("post-insert epoch = %d, want 2", db.Epoch())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: manifest resolves epoch-2 files, old epoch files are gone.
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovery().Recovered() {
		t.Errorf("clean reopen reported recovery: %+v", db2.Recovery())
	}
	after, _, err := db2.Query(samples.PaperQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("query results changed across epoch switch: %d vs %d", len(after), len(before))
	}
	for role, name := range storeFiles(t, dir) {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("role %s (%s): %v", role, name, err)
		}
	}
	// Epoch-1 files must have been swept.
	if _, err := os.Stat(filepath.Join(dir, epochFileName(roleTagIdx, 1))); !os.IsNotExist(err) {
		t.Errorf("old epoch file still present (err=%v)", err)
	}
}
