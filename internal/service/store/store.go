// Package store is lpbufd's content-addressed artifact store: immutable
// JSON artifacts on disk, addressed by the SHA-256 job key computed in
// internal/service. Writes are atomic (temp file + rename into place)
// and first-write-wins, so a key's bytes never change once stored —
// concurrent writers, crashed processes and repeated jobs all converge
// on one byte-exact object, and readers never observe a partial file.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNotFound reports a key with no stored object.
var ErrNotFound = errors.New("store: object not found")

// objectSuffix is appended to object file names; artifacts are JSON.
const objectSuffix = ".json"

// Store is a directory-backed object store. Layout:
//
//	<dir>/objects/<key[:2]>/<key>.json   one immutable object per key
//	<dir>/tmp/                           staging for atomic writes
//
// The two-character fan-out keeps directories small under large
// sweeps. All methods are safe for concurrent use (atomicity comes
// from the filesystem, not locks).
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{"objects", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// validKey requires a lower-case hex SHA-256 digest, which keeps object
// paths safe by construction.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// objectPath maps a key to its on-disk location.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+objectSuffix)
}

// Get returns the stored bytes for key, or ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	data, err := os.ReadFile(s.objectPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// Has reports whether key is stored.
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(s.objectPath(key))
	return err == nil
}

// Put stores data under key. The write is atomic: data lands in tmp/
// and is renamed into place, so readers only ever see complete
// objects. If a non-empty object already exists it wins — the store is
// content-addressed, so an existing object is by definition the same
// bytes, and keeping it preserves byte-identity for readers holding its
// path. An empty object is never a valid artifact (Put refuses to write
// one; a crash after an un-synced rename can leave one), so Put renames
// over it.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(data) == 0 {
		return fmt.Errorf("store: refusing to store empty object %s", key)
	}
	dst := s.objectPath(key)
	if info, err := os.Stat(dst); err == nil && info.Size() > 0 {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), key[:8]+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Keys lists every stored key, sorted.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, objectSuffix) {
			keys = append(keys, strings.TrimSuffix(name, objectSuffix))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Len counts stored objects.
func (s *Store) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Check verifies store consistency: every object sits in its fan-out
// directory under a valid key name and is non-empty (atomic writes
// never leave a truncated object; an empty or misplaced file means
// outside interference). Leftover tmp files are reported too — after a
// graceful drain there must be none.
func (s *Store) Check() error {
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, objectSuffix) {
			return fmt.Errorf("store: foreign file %s", path)
		}
		key := strings.TrimSuffix(name, objectSuffix)
		if !validKey(key) {
			return fmt.Errorf("store: invalid object name %s", path)
		}
		if filepath.Base(filepath.Dir(path)) != key[:2] {
			return fmt.Errorf("store: object %s outside its fan-out directory", path)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if info.Size() == 0 {
			return fmt.Errorf("store: empty object %s", path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tmps, err := os.ReadDir(filepath.Join(s.dir, "tmp"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(tmps) != 0 {
		return fmt.Errorf("store: %d leftover temp files (unclean shutdown?)", len(tmps))
	}
	return nil
}
