package mlops

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SpillStore is the small interface behind which cold serving state
// leaves the heap: frozen-DIMM records under budget pressure, node
// checkpoint blobs, and truncated control-plane journal segments. A
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
// Keys map to file names by escaping separators, so the store never
// creates nested paths.
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

// spillFileEscaper rewrites key characters that are meaningful in file
// paths. Keys are generated internally (DIMM IDs, checkpoint names), so
// readable one-way escaping is enough — no unescaping ever happens.
var spillFileEscaper = strings.NewReplacer("/", "@", "\\", "@", ":", "_", "..", "__")

func (s *DirSpill) path(key string) string {
	return filepath.Join(s.dir, spillFileEscaper.Replace(key)+".spill")
}

// Put implements SpillStore.
func (s *DirSpill) Put(key string, data []byte) error {
	return os.WriteFile(s.path(key), data, 0o644)
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
