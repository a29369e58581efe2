package core

// manifest.go — the store's atomic commit protocol.
//
// A database directory is committed by a MANIFEST file: a checksummed,
// atomically replaced record of the current epoch and, for every store
// file, its name, byte length and full-file CRC32C. Whatever the manifest
// names IS the store; everything else in the directory is garbage from an
// interrupted transaction.
//
// Commit strategy per file class:
//
//   - tree.pg is copy-on-write (internal/pager/versions.go): a mutation
//     relocates every page it touches to a fresh physical page, so the
//     committed epoch's pages are never overwritten. The epoch's
//     logical→physical page table is serialized to an epoch-named
//     "treemap" sidecar (own CRC32C); the manifest's CRC for tree.pg is
//     recorded as 0 because the file legitimately contains free pages
//     with stale bytes — integrity comes from the per-page checksum
//     trailers of the *referenced* pages plus the sidecar checksum.
//   - values.dat is append-only; rolling back means truncating to the
//     length the manifest records.
//   - The four B+ tree indexes, the symbol table, the statistics file and
//     the treemap sidecar are written fresh per epoch (e.g.
//     tagidx-0000002a.pg) and switched over by the manifest replace; the
//     previous epoch's files are deleted once no pinned snapshot can
//     still need them (or by recovery, whichever runs first).
//
// A commit is: fsync every file → write the treemap sidecar → write
// MANIFEST via tmp+fsync+rename+dir fsync. The manifest replace is the
// commit point. Open recovers by reading the
// manifest, truncating garbage tails off the fixed-name files, deriving
// orphaned copy-on-write pages into the free list (see
// pager.InstallVersion), and sweeping orphaned epoch files.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"

	"nok/internal/obs"
	"nok/internal/vfs"
)

// FormatVersion is the store format the manifest commits to. Version 3
// made tree.pg copy-on-write with an epoch-named page-table sidecar (the
// "treemap" role), replacing the undo journal; version 2 introduced
// checksummed pages, file headers, and the manifest itself. Older
// directories must be rebuilt from the source document.
const FormatVersion = 3

// ManifestName is the commit record's file name inside a store directory.
const ManifestName = "MANIFEST"

const manifestMagic = "NOKMF1"

// Roles name the store files inside the manifest, independent of the
// (possibly epoch-suffixed) physical file names.
const (
	roleTree   = "tree"
	roleValues = "values"
	// roleTreeMap is tree.pg's committed logical→physical page table (the
	// shadow-paging sidecar, one per epoch).
	roleTreeMap = "treemap"
	roleTags    = "tags"
	roleStats   = "stats"
	roleTagIdx  = "tagidx"
	roleValIdx  = "validx"
	roleDewIdx  = "deweyidx"
	rolePathIdx = "pathidx"
	// roleSynopsis is the planner's statistics synopsis (internal/stats).
	// Deliberately NOT in allRoles: the synopsis is auxiliary, and a store
	// whose synopsis file is missing or damaged must still open and query
	// (via the heuristic fallback). Recovery treats it leniently.
	roleSynopsis = "synopsis"
)

var allRoles = []string{roleTree, roleValues, roleTreeMap, roleTags, roleStats, roleTagIdx, roleValIdx, roleDewIdx, rolePathIdx}

// Typed open/recovery errors. All are wrapped with file detail; test with
// errors.Is.
var (
	// ErrNoManifest: the directory has no MANIFEST — either it is not a
	// store, a bulk load crashed before committing, or the store predates
	// the manifest format.
	ErrNoManifest = errors.New("core: no manifest (not a store, an uncommitted load, or a pre-manifest store that must be rebuilt)")
	// ErrManifestCorrupt: MANIFEST exists but fails its checksum or does
	// not parse.
	ErrManifestCorrupt = errors.New("core: manifest corrupt")
	// ErrMissingFile: the manifest names a file that does not exist.
	ErrMissingFile = errors.New("core: store file missing")
	// ErrTruncatedFile: a store file is shorter than the committed length.
	ErrTruncatedFile = errors.New("core: store file shorter than committed length")
)

// Recovery counters, exposed through /metrics and nokstat.
var (
	mRecTruncates = obs.Default.Counter("nok_recovery_truncations_total", "file tails truncated back to the committed length at open")
	mRecOrphans   = obs.Default.Counter("nok_recovery_orphans_removed_total", "orphaned epoch/tmp files swept at open")
	mRecOpens     = obs.Default.Counter("nok_recovery_opens_total", "opens that performed at least one recovery action")
)

// FileRecord is one committed file in the manifest.
type FileRecord struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the store's commit record.
type Manifest struct {
	Format int                   `json:"format"`
	Epoch  uint64                `json:"epoch"`
	Files  map[string]FileRecord `json:"files"`
}

// RecoveryInfo reports what Open had to repair to reach a committed state.
type RecoveryInfo struct {
	// TruncatedFiles lists files whose uncommitted tails were cut off.
	TruncatedFiles []string
	// OrphansRemoved lists swept leftover files (stale epochs, tmp files).
	OrphansRemoved []string
}

// Recovered reports whether any recovery action ran.
func (r RecoveryInfo) Recovered() bool {
	return len(r.TruncatedFiles) > 0 || len(r.OrphansRemoved) > 0
}

// epochFileName returns the physical name for an epoch-switched role.
func epochFileName(role string, epoch uint64) string {
	ext := ".pg"
	switch role {
	case roleTags:
		ext = ".sym"
	case roleStats:
		ext = ".dat"
	case roleSynopsis:
		ext = ".bin"
	case roleTreeMap:
		ext = ".vt"
	}
	return fmt.Sprintf("%s-%08x%s", role, epoch, ext)
}

// epochFilePat matches any epoch-named store file (for orphan sweeping).
var epochFilePat = regexp.MustCompile(`^(tags|stats|synopsis|tagidx|validx|deweyidx|pathidx|treemap)-[0-9a-f]{8}\.(sym|dat|bin|pg|vt)$`)

// readManifest loads and validates the manifest of dir.
func readManifest(fsys vfs.FS, dir string) (*Manifest, error) {
	raw, err := vfs.ReadFile(fsys, filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoManifest, dir)
		}
		return nil, err
	}
	// Line 1: "NOKMF1 <crc32c-hex>\n"; the rest is the JSON payload the
	// checksum covers.
	nl := -1
	for i, c := range raw {
		if c == '\n' {
			nl = i
			break
		}
	}
	headerLen := len(manifestMagic) + 1 + 8
	if nl != headerLen || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrManifestCorrupt, dir)
	}
	var want uint32
	if _, err := fmt.Sscanf(string(raw[len(manifestMagic)+1:nl]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("%w: %s: bad checksum field", ErrManifestCorrupt, dir)
	}
	payload := raw[nl+1:]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (torn manifest write?)", ErrManifestCorrupt, dir)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrManifestCorrupt, dir, err)
	}
	if m.Format != FormatVersion {
		return nil, fmt.Errorf("core: %s: store format %d, this build reads %d (rebuild the store)", dir, m.Format, FormatVersion)
	}
	for _, role := range allRoles {
		if _, ok := m.Files[role]; !ok {
			return nil, fmt.Errorf("%w: %s: manifest lacks role %q", ErrManifestCorrupt, dir, role)
		}
	}
	return &m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(fsys vfs.FS, dir string, m *Manifest) error {
	payload, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	head := fmt.Sprintf("%s %08x\n", manifestMagic, crc32.Checksum(payload, castagnoli))
	return vfs.WriteFileAtomic(fsys, filepath.Join(dir, ManifestName), append([]byte(head), payload...), 0o644)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileChecksum streams path and returns its length and CRC32C.
func fileChecksum(fsys vfs.FS, path string) (int64, uint32, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, fi.Size())); err != nil {
		return 0, 0, err
	}
	return fi.Size(), h.Sum32(), nil
}

// record builds the manifest entry for one file.
func record(fsys vfs.FS, dir, name string) (FileRecord, error) {
	size, crc, err := fileChecksum(fsys, filepath.Join(dir, name))
	if err != nil {
		return FileRecord{}, err
	}
	return FileRecord{Name: name, Size: size, CRC32C: crc}, nil
}

// buildManifest checksums every named file and assembles the commit
// record. tree.pg is special: free physical pages legitimately hold stale
// bytes that change without a commit, so a whole-file CRC is meaningless —
// its record carries size only (CRC 0), and integrity is enforced per
// referenced page (checksum trailers) plus the treemap sidecar's own CRC.
func buildManifest(fsys vfs.FS, dir string, epoch uint64, names map[string]string) (*Manifest, error) {
	m := &Manifest{Format: FormatVersion, Epoch: epoch, Files: make(map[string]FileRecord, len(names))}
	for role, name := range names {
		if role == roleTree {
			fi, err := fsys.Stat(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("core: sizing %s: %w", name, err)
			}
			m.Files[role] = FileRecord{Name: name, Size: fi.Size()}
			continue
		}
		rec, err := record(fsys, dir, name)
		if err != nil {
			return nil, fmt.Errorf("core: checksumming %s: %w", name, err)
		}
		m.Files[role] = rec
	}
	return m, nil
}

// recoverStore brings dir back to its last committed state and returns the
// manifest describing it. It is the first thing Open does.
func recoverStore(fsys vfs.FS, dir string) (*Manifest, RecoveryInfo, error) {
	var info RecoveryInfo
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, info, err
	}
	// Check every committed file's length; cut uncommitted tails off the
	// in-place/append-only files, and refuse anything shorter than
	// committed (that is damage, not an interrupted transaction).
	for _, role := range allRoles {
		rec := m.Files[role]
		path := filepath.Join(dir, rec.Name)
		fi, err := fsys.Stat(path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, info, fmt.Errorf("%w: %s (role %s)", ErrMissingFile, rec.Name, role)
			}
			return nil, info, err
		}
		switch {
		case fi.Size() < rec.Size:
			return nil, info, fmt.Errorf("%w: %s is %d bytes, committed %d", ErrTruncatedFile, rec.Name, fi.Size(), rec.Size)
		case fi.Size() > rec.Size:
			if err := fsys.Truncate(path, rec.Size); err != nil {
				return nil, info, fmt.Errorf("core: truncating %s: %w", rec.Name, err)
			}
			info.TruncatedFiles = append(info.TruncatedFiles, rec.Name)
			mRecTruncates.Inc()
		}
	}

	// The synopsis is auxiliary (the planner falls back to the heuristic
	// without it): a missing or shortened synopsis file drops the role from
	// the in-memory manifest view instead of failing the open; an
	// over-length one is truncated back like any other committed file.
	if rec, ok := m.Files[roleSynopsis]; ok {
		path := filepath.Join(dir, rec.Name)
		fi, err := fsys.Stat(path)
		switch {
		case err != nil || fi.Size() < rec.Size:
			// Missing or damaged: forget it; if a damaged file remains on
			// disk the orphan sweep below removes it.
			delete(m.Files, roleSynopsis)
		case fi.Size() > rec.Size:
			if err := fsys.Truncate(path, rec.Size); err != nil {
				return nil, info, fmt.Errorf("core: truncating %s: %w", rec.Name, err)
			}
			info.TruncatedFiles = append(info.TruncatedFiles, rec.Name)
			mRecTruncates.Inc()
		}
	}

	// Sweep orphans: epoch-named files the manifest does not reference and
	// leftover atomic-write temporaries. Unknown files are left alone.
	current := make(map[string]bool, len(m.Files))
	for _, rec := range m.Files {
		current[rec.Name] = true
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, info, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || current[name] {
			continue
		}
		if epochFilePat.MatchString(name) || filepath.Ext(name) == ".tmp" {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, info, fmt.Errorf("core: sweeping %s: %w", name, err)
			}
			info.OrphansRemoved = append(info.OrphansRemoved, name)
			mRecOrphans.Inc()
		}
	}
	if info.Recovered() {
		mRecOpens.Inc()
	}
	return m, info, nil
}
