package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageListsAllFlags keeps the package doc comment in sync with the
// actual flag set: every declared flag must appear (as -name) in the
// usage text at the top of main.go.
func TestUsageListsAllFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, found := strings.Cut(string(src), "package main")
	if !found {
		t.Fatal("main.go has no package clause")
	}
	var o options
	fs := newFlagSet(&o)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "-"+f.Name) {
			t.Errorf("doc comment does not mention flag -%s", f.Name)
		}
	})
}

// TestUnknownFlag checks the ContinueOnError flag set reports an unknown
// flag with a usage dump covering both modes' flags.
func TestUnknownFlag(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	if err := fs.Parse([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	out := buf.String()
	for _, want := range []string{"-node", "-join", "-addr", "-trainer", "-membudget", "-alarm-log", "-heartbeat"} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-flag usage output does not mention %s:\n%s", want, out)
		}
	}
}

// TestAlarmLogPinned runs the control plane in-process at Intel_Purley
// scale 0.03 seed 31, as `mlopsd -platform Intel_Purley -scale 0.03 -seed
// 31 -alarm-log f` does, and pins the alarm log it writes: 1,865 lines and
// their sha256. A change anywhere on the path from fleet generation
// through training, the wire and serving to emission that moves one alarm
// or one score bit fails here.
func TestAlarmLogPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a Purley fleet through the control plane (~5 s)")
	}
	path := filepath.Join(t.TempDir(), "alarms.log")
	var o options
	if err := newFlagSet(&o).Parse([]string{"-platform", "Intel_Purley", "-scale", "0.03", "-seed", "31", "-alarm-log", path}); err != nil {
		t.Fatal(err)
	}
	if err := runControl(context.Background(), &o); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wantLines, wantSum = 1865, "33051316a7e5b8283be6a69d131a532a519d0c2aa27aeccb697d80dadb77e784"
	lines, sum := bytes.Count(log, []byte("\n")), sha256.Sum256(log)
	if lines != wantLines || hex.EncodeToString(sum[:]) != wantSum {
		t.Errorf("alarm log: %d lines, sha256 %x; want %d lines, sha256 %s", lines, sum, wantLines, wantSum)
	}
}
