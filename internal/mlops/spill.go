package mlops

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
)

// SpillStore is the small interface behind which cold serving state
// leaves the heap: frozen-DIMM records under budget pressure and node
// checkpoint blobs. A
// store only ever sees opaque byte blobs keyed by short path-like
// strings; implementations may back it with a directory today or object
// storage tomorrow.
type SpillStore interface {
	// Put stores data under key, replacing any previous value.
	Put(key string, data []byte) error
	// Get returns the value stored under key.
	Get(key string) ([]byte, error)
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
}

// MemSpill is an in-memory SpillStore — the default backing when no
// directory is configured, and the test double. Safe for concurrent use.
type MemSpill struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemSpill returns an empty in-memory spill store.
func NewMemSpill() *MemSpill { return &MemSpill{m: map[string][]byte{}} }

// Put implements SpillStore.
func (s *MemSpill) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[key] = cp
	return nil
}

// Get implements SpillStore.
func (s *MemSpill) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("mlops: spill key %q not found", key)
	}
	return data, nil
}

// Delete implements SpillStore.
func (s *MemSpill) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// DirSpill is a SpillStore backed by flat files under one directory.
// A key's file is its path-escaped form plus ".spill" — distinct keys
// never share a file, and the store never creates nested paths.
type DirSpill struct {
	dir string
}

// NewDirSpill creates (if needed) and wraps a spill directory.
func NewDirSpill(dir string) (*DirSpill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mlops: spill dir: %w", err)
	}
	return &DirSpill{dir: dir}, nil
}

func (s *DirSpill) path(key string) string {
	return filepath.Join(s.dir, url.PathEscape(key)+".spill")
}

// Put implements SpillStore. The value is written beside its destination
// and renamed over it, so a process that dies mid-write leaves the
// previous value under key, never a truncated one.
func (s *DirSpill) Put(key string, data []byte) error {
	f, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Get implements SpillStore.
func (s *DirSpill) Get(key string) ([]byte, error) {
	return os.ReadFile(s.path(key))
}

// Delete implements SpillStore.
func (s *DirSpill) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
