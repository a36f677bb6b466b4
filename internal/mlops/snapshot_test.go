package mlops

import (
	"sort"
	"strings"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/eval"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// snapshotStream flattens the fixture store into one time-sorted stream.
func snapshotStream(t *testing.T) (*Pipeline, []trace.Event, func(s *Server)) {
	t.Helper()
	pipe, res := trainedPipeline(t)
	var stream []trace.Event
	for _, l := range res.Store.DIMMs() {
		stream = append(stream, l.Events...)
	}
	sortSlice(stream, func(a, b trace.Event) bool { return trace.ByTime{a, b}.Less(0, 1) })
	register := func(s *Server) {
		for _, l := range res.Store.DIMMs() {
			s.RegisterDIMM(l.ID, l.Part)
		}
	}
	return pipe, stream, register
}

// ingestChunks feeds a stream through IngestBatch in fixed chunks.
func ingestChunks(t *testing.T, s *Server, stream []trace.Event) []Alarm {
	t.Helper()
	var alarms []Alarm
	for i := 0; i < len(stream); i += 97 {
		j := min(i+97, len(stream))
		as, err := s.IngestBatch(stream[i:j])
		if err != nil {
			t.Fatal(err)
		}
		alarms = append(alarms, as...)
	}
	return alarms
}

// TestSnapshotRestoreTransparent cuts a serving run in half at a
// snapshot: engine A serves the first half, its snapshot restores into a
// fresh engine B that serves the second half, and the concatenated alarm
// streams must equal one uninterrupted run — bounded and unbounded, with
// and without a spill store underneath the budget.
func TestSnapshotRestoreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, stream, register := snapshotStream(t)

	build := func(budget int64, spill SpillStore) *Server {
		s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 4)
		s.MemoryBudget = budget
		s.Spill = spill
		register(s)
		return s
	}

	ref := build(0, nil)
	want := ingestChunks(t, ref, stream)
	if len(want) == 0 {
		t.Fatal("no alarms; fixture proves nothing")
	}

	for _, tc := range []struct {
		name   string
		budget int64
		spill  func() SpillStore
	}{
		{"unbounded", 0, func() SpillStore { return nil }},
		{"bounded", 64 << 10, func() SpillStore { return nil }},
		{"bounded-spill", 64 << 10, func() SpillStore { return NewMemSpill() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := len(stream) / 2
			a := build(tc.budget, tc.spill())
			got := ingestChunks(t, a, stream[:cut])
			blob, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Determinism: snapshotting quiescent state twice yields the
			// same bytes.
			blob2, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Fatal("snapshot encoding is not deterministic")
			}
			b := build(tc.budget, tc.spill())
			if err := b.RestoreSnapshot(blob); err != nil {
				t.Fatal(err)
			}
			got = append(got, ingestChunks(t, b, stream[cut:])...)
			if len(got) != len(want) {
				t.Fatalf("%d alarms across snapshot cut, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("alarm %d differs across snapshot cut:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSpillBoundedIngest runs the bounded eviction churn of
// TestEvictionTransparent with a disk-backed spill store: the alarm
// stream must stay byte-identical while frozen records actually leave
// the heap (spill counters move, and thaws read records back).
func TestSpillBoundedIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, stream, register := snapshotStream(t)

	run := func(budget int64, spill SpillStore) ([]Alarm, MemoryStats) {
		s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 4)
		s.MemoryBudget = budget
		s.Spill = spill
		register(s)
		return ingestChunks(t, s, stream), s.MemoryStats()
	}

	want, _ := run(0, nil)
	if len(want) == 0 {
		t.Fatal("no alarms; fixture proves nothing")
	}
	spill, err := NewDirSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, ms := run(64<<10, spill)
	if ms.Spills == 0 {
		t.Fatalf("spill never exercised (evictions=%d)", ms.Evictions)
	}
	if ms.SpilledBytes < 0 {
		t.Fatalf("spilled-bytes gauge went negative: %d", ms.SpilledBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("%d alarms with disk spill, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alarm %d differs with disk spill:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// lyingSnapshot is a one-record snapshot whose event count (1<<62) its
// 3-byte blob cannot hold — the record that used to restore cleanly and
// then kill the node in make() at the DIMM's next event.
func lyingSnapshot(tb testing.TB) []byte {
	tb.Helper()
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		tb.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	w := trace.BinWriter{}
	w.Raw([]byte(snapshotMagic))
	w.Uvarint(1)
	if err := appendFrozenRec(&w, id, &frozenDIMM{part: part, events: 1 << 62, blob: []byte{0, 2, 0}}); err != nil {
		tb.Fatal(err)
	}
	return w.Buf
}

// smallSnapshot serves a few synthetic DIMMs (CEs, a UE, a storm; one
// log long enough to have been compacted) under a budget and returns the
// engine's snapshot together with a registry to restore it against.
func smallSnapshot(tb testing.TB) (*Registry, []byte) {
	tb.Helper()
	reg := NewRegistry()
	registerFunc(tb, reg, "m", func(x []float64) float64 { return x[5] / 64 }, eval.Metrics{}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		tb.Fatal(err)
	}
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		tb.Fatal(err)
	}
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	s.MemoryBudget = 1 << 20
	var events []trace.Event
	for d := 0; d < 2; d++ {
		id := trace.DIMMID{Platform: platform.Purley, Server: d, Slot: d % 2}
		s.RegisterDIMM(id, part)
		for i := 0; i < 30*(d+1); i++ {
			e := trace.Event{Time: trace.Minutes(i)*trace.Day/2 + trace.Minutes(d), Type: trace.TypeCE, DIMM: id,
				Addr: dram.Addr{Rank: i % 2, Device: i % 18, Bank: i % 16, Row: 100 + i%3, Column: i % 7},
				Bits: dram.ErrorBits{Width: part.Width, Mask: 1 << (i % 32)}}
			switch {
			case i == 17:
				e.Type, e.Bits = trace.TypeUE, dram.ErrorBits{}
			case i == 23:
				e.Type, e.Addr, e.Bits = trace.TypeStorm, dram.Addr{}, dram.ErrorBits{}
			}
			events = append(events, e)
		}
	}
	sort.Stable(trace.ByTime(events))
	if _, err := s.IngestBatch(events); err != nil {
		tb.Fatal(err)
	}
	if s.MemoryStats().Compactions == 0 {
		tb.Fatal("fixture never compacted: the snapshot carries no fold state")
	}
	blob, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return reg, blob
}

// TestRestoreSnapshotRefusesBadRecords: a record whose count its blob
// cannot hold is refused at restore time, and an MFS1 snapshot is refused
// by name.
func TestRestoreSnapshotRefusesBadRecords(t *testing.T) {
	reg, good := smallSnapshot(t)
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	if err := s.RestoreSnapshot(good); err != nil {
		t.Fatalf("real snapshot refused: %v", err)
	}
	lying := lyingSnapshot(t)
	if err := s.RestoreSnapshot(lying); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Errorf("record declaring 1<<62 events in 3 bytes: %v", err)
	}
	old := append([]byte("MFS1"), good[4:]...)
	if err := s.RestoreSnapshot(old); err == nil || !strings.Contains(err.Error(), "MFS1") {
		t.Errorf("MFS1 snapshot: %v", err)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to RestoreSnapshot — they
// reach a node over HTTP from the control plane's checkpoint store — and
// then sends one CE to every DIMM the restore accepted, which thaws it:
// errors are fine, a panic is not.
func FuzzRestoreSnapshot(f *testing.F) {
	reg, good := smallSnapshot(f)
	lying := lyingSnapshot(f)
	f.Add(good)
	f.Add(lying)
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
		s.MemoryBudget = 1 << 20
		if err := s.RestoreSnapshot(data); err != nil {
			return
		}
		var ids []trace.DIMMID
		for _, sh := range s.shards {
			for id := range sh.frozen {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			s.Ingest(trace.Event{Time: 400 * trace.Day, Type: trace.TypeCE, DIMM: id,
				Bits: dram.ErrorBits{Width: dram.X4, Mask: 1}})
		}
	})
}
