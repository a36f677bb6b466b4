package mlops

import (
	"os"
	"strings"
	"testing"
)

// TestDirSpillKeysAndFiles: keys that differ only in path-meaningful
// characters (two nodes' checkpoint names) keep distinct values, and a Put
// leaves nothing in the directory but the keys' *.spill files — the
// temporary it wrote through is gone.
func TestDirSpillKeysAndFiles(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewDirSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{"ckpt/r1/n": "slash", "ckpt/r1@n": "at", "ckpt/..": "dots"}
	for k, v := range vals {
		if err := sp.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Put("ckpt/r1/n", []byte("slash again")); err != nil {
		t.Fatal(err)
	}
	vals["ckpt/r1/n"] = "slash again"
	for k, v := range vals {
		if got, err := sp.Get(k); err != nil || string(got) != v {
			t.Errorf("Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(vals) {
		t.Errorf("%d files for %d keys", len(ents), len(vals))
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".spill") {
			t.Errorf("stray entry %q in the spill directory", e.Name())
		}
	}
}
