package features

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"memfp/internal/analysis"
	"memfp/internal/dram"
	"memfp/internal/trace"
)

// TestCompactLogCursorEquivalence replays real DIMM histories through a
// live log that is compacted behind the prediction point — the serving
// engine's pattern — and checks every cursor vector against the
// independent full-scan oracle over an uncompacted twin. Compaction must
// be invisible to extraction.
func TestCompactLogCursorEquivalence(t *testing.T) {
	w := ObservationWindow
	for _, src := range busyLogs(t, 10, 5) {
		live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		oracle := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		sc := NewServeCursor(live)
		checked, compactions := 0, 0
		for _, e := range src.Events {
			live.Append(e)
			oracle.Append(e)
			if e.Type != trace.TypeCE {
				continue
			}
			got := sc.ExtractAt(e.Time)
			want := naiveExtract(oracle, e.Time)
			if !reflect.DeepEqual(got, want) {
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s @%v (after %d compactions): feature %q compacted %v != oracle %v",
							src.ID, e.Time, compactions, Names()[k], got[k], want[k])
					}
				}
			}
			checked++
			// Compact behind the observation window after every few
			// predictions, like the engine does after each prediction.
			if checked%3 == 0 && CompactLog(live, e.Time-w) > 0 {
				compactions++
			}
		}
		if compactions == 0 {
			t.Fatalf("%s: compaction never dropped events; test proves nothing", src.ID)
		}
		if live.CompactedEvents()+len(live.Events) != len(oracle.Events) {
			t.Fatalf("%s: dropped+retained != total", src.ID)
		}
	}
}

// TestCompactLogOutOfOrderRecovery: a late event (above the horizon, below
// the last served instant) appended to a compacted log re-sorts it, and
// the cursor, which sees the new index generation, must answer as a fresh
// cursor over the same compacted log — and from then on as the full-scan
// oracle over the uncompacted log given the same events.
func TestCompactLogOutOfOrderRecovery(t *testing.T) {
	w := ObservationWindow
	src := busyLogs(t, 30, 1)[0]
	live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	oracle := &trace.DIMMLog{ID: src.ID, Part: src.Part}
	sc := NewServeCursor(live)

	ces := src.CEs()
	half := len(src.Events) / 2
	var lastT trace.Minutes
	for _, e := range src.Events[:half] {
		live.Append(e)
		oracle.Append(e)
		if e.Type == trace.TypeCE {
			sc.ExtractAt(e.Time)
			lastT = e.Time
		}
	}
	if CompactLog(live, lastT-w) == 0 {
		t.Fatal("compaction dropped nothing; pick a busier fixture")
	}

	stale := ces[0]
	stale.Time = lastT - 1
	gen := live.IndexGen()
	live.Append(stale)
	oracle.Append(stale)
	if live.IndexGen() == gen {
		t.Fatal("a late append must re-sort the log and advance IndexGen")
	}
	if got, want := sc.ExtractAt(lastT+1), NewCursor(live).ExtractAt(lastT+1); !reflect.DeepEqual(got, want) {
		t.Fatal("cursor diverged from offline extraction over the same compacted log")
	}
	if got, want := sc.ExtractAt(lastT+1), naiveExtract(oracle, lastT+1); !reflect.DeepEqual(got, want) {
		t.Fatal("cursor over the compacted log diverged from the uncompacted oracle")
	}

	checked := 0
	for _, e := range src.Events[half:] {
		live.Append(e)
		oracle.Append(e)
		if e.Type != trace.TypeCE || e.Time <= lastT {
			continue
		}
		if got, want := sc.ExtractAt(e.Time), naiveExtract(oracle, e.Time); !reflect.DeepEqual(got, want) {
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("@%v post-recovery: feature %q compacted %v != oracle %v",
						e.Time, Names()[k], got[k], want[k])
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no post-recovery instants checked")
	}
}

// TestFoldStateSeedsFreshCursor pins the seeding path directly: a brand-new
// cursor over a compacted log (the eviction-thaw case — no surviving
// ServeCursor) must equal the oracle at the first instant it serves.
func TestFoldStateSeedsFreshCursor(t *testing.T) {
	w := ObservationWindow
	for _, src := range busyLogs(t, 20, 3) {
		live := &trace.DIMMLog{ID: src.ID, Part: src.Part}
		for _, e := range src.Events {
			live.Append(e)
		}
		ces := live.CEs()
		at := ces[len(ces)-1].Time
		if CompactLog(live, at-w) == 0 {
			continue
		}
		got := NewServeCursor(live).ExtractAt(at)
		want := naiveExtract(src, at)
		if !reflect.DeepEqual(got, want) {
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s @%v: feature %q fresh-over-compacted %v != oracle %v",
						src.ID, at, Names()[k], got[k], want[k])
				}
			}
		}
	}
}

// FuzzDecodeFoldState feeds arbitrary bytes to the fold-state decoder — a
// rejoining node runs it on checkpoint bytes pulled over HTTP, a thaw on
// whatever the spill directory holds. It must not panic or allocate out
// of proportion to its input, and since the format carries cell counts
// and nothing derived from them, whatever decodes is a consistent
// classifier: it re-encodes to a fixpoint, and it classifies exactly as
// the batch oracle does over the events its cells stand for.
func FuzzDecodeFoldState(f *testing.F) {
	empty := func() *FoldState {
		return &FoldState{firstCE: -1, lastCE: -1, life: analysis.NewIncremental()}
	}
	seed := empty()
	for i := 0; i < 60; i++ {
		seed.fold(trace.Event{Time: trace.Minutes(10 * i), Type: trace.TypeCE,
			Addr: dram.Addr{Rank: uint8(i % 2), Device: uint8(i % 3), Bank: uint8(i % 2), Row: uint32(i % 5), Column: uint16(i % 7)}})
	}
	encode := func(fs *FoldState) []byte {
		var w trace.BinWriter
		fs.AppendBinary(&w)
		return w.Buf
	}
	good := encode(seed)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(encode(empty()))
	f.Add([]byte{})
	// A cell one past its row field and one with a negative device: the
	// classifier cannot key them, so the decoder refuses them.
	for _, cell := range [][5]int64{{0, 0, 0, 1 << 24, 0}, {0, -1, 0, 0, 0}} {
		w := trace.BinWriter{Buf: bytes.Clone(encode(empty()))}
		w.Buf = w.Buf[:len(w.Buf)-1] // the empty cell list's count
		w.Uvarint(1)
		for _, v := range cell {
			w.Varint(v)
		}
		w.Varint(1)
		f.Add(w.Buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := trace.NewBinReader(data)
		fs := DecodeFoldState(r)
		runtime.ReadMemStats(&after)
		// A cell is at least six bytes and costs a few hundred to hold
		// (entries in five maps); the constant absorbs
		// the empty classifier and whatever other goroutines allocated.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+512*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, limit)
		}
		if r.Err() != nil {
			return
		}
		// Every cell accepted packs into its cell ID and back unchanged.
		in := trace.NewBinReader(data)
		in.Varint() // two instants
		in.Varint()
		for i, cells := uint64(0), in.Uvarint(); i < cells; i++ {
			a, err := dram.MakeAddr(int(in.Varint()), int(in.Varint()), int(in.Varint()),
				int(in.Varint()), int(in.Varint()))
			in.Varint()
			if err != nil {
				t.Fatalf("accepted cell %d: %v", i, err)
			}
			if dram.CellAddr(a.CellID()) != a {
				t.Fatalf("accepted cell %v unpacks to %v", a, dram.CellAddr(a.CellID()))
			}
		}
		once := encode(fs)
		r2 := trace.NewBinReader(once)
		fs2 := DecodeFoldState(r2)
		if r2.Err() != nil || r2.Remaining() != 0 {
			t.Fatalf("re-encoded fold state refused: %v (%d bytes left)", r2.Err(), r2.Remaining())
		}
		if twice := encode(fs2); !bytes.Equal(once, twice) {
			t.Fatalf("fold state does not round-trip:\n once %x\ntwice %x", once, twice)
		}

		// Read the canonical form by hand — two instants, the (cell, count)
		// list — and expand each cell into its events.
		p := trace.NewBinReader(once)
		p.Varint()
		p.Varint()
		var events []trace.Event
		for i, cells := uint64(0), p.Uvarint(); i < cells; i++ {
			e := trace.Event{Type: trace.TypeCE, Addr: dram.Addr{Rank: uint8(p.Varint()), Device: uint8(p.Varint()),
				Bank: uint8(p.Varint()), Row: uint32(p.Varint()), Column: uint16(p.Varint())}}
			n := p.Varint()
			if n > 1<<12 || len(events) > 1<<16 {
				return // too many events to expand; the small cases carry the property
			}
			for ; n > 0; n-- {
				events = append(events, e)
			}
		}
		if p.Err() != nil || p.Remaining() != 0 {
			t.Fatalf("canonical form is not instants + cells: %v (%d bytes left)", p.Err(), p.Remaining())
		}
		if got, want := fs.life.Class(), classify(events); got != want {
			t.Fatalf("decoded classifier says %+v, a fresh classifier over its %d events %+v", got, len(events), want)
		}
	})
}
