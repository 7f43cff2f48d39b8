package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func keyFor(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"schema":"lpbuf.artifact/v1"}` + "\n")
	key := keyFor(data)
	if s.Has(key) {
		t.Fatal("Has reported an object before Put")
	}
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if !s.Has(key) {
		t.Fatal("Has false after Put")
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after Put: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(keyFor([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestPutFirstWriteWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("first\n")
	key := keyFor(first)
	if err := s.Put(key, first); err != nil {
		t.Fatal(err)
	}
	// A second Put under the same key must not change stored bytes —
	// content addressing means "same key, same bytes", so the store
	// keeps what readers may already hold.
	if err := s.Put(key, []byte("second\n")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) {
		t.Fatalf("second Put replaced object: got %q", got)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("not-a-key", []byte("x")); err == nil {
		t.Error("invalid key accepted")
	}
	if err := s.Put("../../../../etc/passwd", []byte("x")); err == nil {
		t.Error("path-traversal key accepted")
	}
	if err := s.Put(keyFor(nil), nil); err == nil {
		t.Error("empty object accepted")
	}
}

func TestConcurrentPutSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("concurrent\n")
	key := keyFor(data)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, data); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after concurrent puts: %v", err)
	}
}

func TestKeysSorted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("object %d\n", i))
		key := keyFor(data)
		want = append(want, key)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %d entries, want %d", len(keys), len(want))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted: %q >= %q", keys[i-1], keys[i])
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("ok\n")
	key := keyFor(data)
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}

	// A foreign file in objects/ is outside interference.
	foreign := filepath.Join(dir, "objects", key[:2], "notes.txt")
	if err := os.WriteFile(foreign, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Error("Check missed foreign file")
	}
	os.Remove(foreign)

	// A truncated object can't come from an atomic write.
	if err := os.Truncate(filepath.Join(dir, "objects", key[:2], key+".json"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Error("Check missed empty object")
	}
}

func TestCheckCatchesLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp", "orphan"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Error("Check missed leftover temp file")
	}
}

// TestPutReplacesEmptyObject: a zero-length object (what a crash after
// an un-synced rename can leave) is not an artifact, so Put renames the
// real bytes over it instead of keeping it as the first write.
func TestPutReplacesEmptyObject(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("artifact\n")
	key := keyFor(data)
	dst := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Fatal("Check accepted an empty object")
	}
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get after Put over an empty object = %q, want %q", got, data)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after the replacement: %v", err)
	}
}
