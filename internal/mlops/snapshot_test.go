package mlops

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
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

// fullWalkSnapshot is the snapshot oracle — Snapshot as it was before it
// kept anything: freeze every resident DIMM (encoding all of its events,
// none reused from a kept record), read back every spilled one, sort the
// records by DIMM ID, encode.
func fullWalkSnapshot(s *Server) ([]byte, error) {
	var recs []frozenRec
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, st := range sh.dimms {
			fresh := *st
			fresh.recBlob = nil
			recs = append(recs, frozenRec{id: id, fz: freezeDIMM(&fresh, nil)})
		}
		for id, fz := range sh.frozen {
			if fz.spilled {
				_, real, err := s.readSpilled(id)
				if err != nil {
					sh.mu.Unlock()
					return nil, err
				}
				fz = real
			}
			recs = append(recs, frozenRec{id: id, fz: fz})
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id.Less(recs[j].id) })

	w := trace.BinWriter{Buf: make([]byte, 0, 1024)}
	w.Raw([]byte(snapshotMagic))
	w.Uvarint(uint64(len(recs)))
	for _, rc := range recs {
		appendFrozenRec(&w, rc.id, rc.fz)
	}
	return w.Buf, nil
}

// checkBooks audits a budgeted engine's accounting: the resident tally
// is the sum of what each DIMM is booked at, a frozen DIMM and a DIMM
// holding a kept record are booked at exactly footprint() — the record is
// inside the accounting — and with strict set so is every other DIMM.
// (Strict holds right after a snapshot, which settles each record it
// fills. After a tick it does not, here or before records were kept: the
// cursor work and compaction behind a prediction follow the event's
// account call, so a DIMM's booking lags until its next event.)
func checkBooks(s *Server, strict bool) error {
	var booked int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, st := range sh.dimms {
			booked += st.bytes
			if fp := st.footprint(); (strict || (st.rec != nil && !st.dirty)) && st.bytes != fp {
				sh.mu.Unlock()
				return fmt.Errorf("%s (kept record: %d bytes) booked at %d, footprint %d", id, len(st.rec), st.bytes, fp)
			}
		}
		for id, fz := range sh.frozen {
			booked += fz.bytes
			if fp := fz.footprint(); fz.bytes != fp {
				sh.mu.Unlock()
				return fmt.Errorf("frozen %s booked at %d, footprint %d", id, fz.bytes, fp)
			}
		}
		sh.mu.Unlock()
	}
	if got := s.MemoryStats().ResidentBytes; got != booked {
		return fmt.Errorf("resident tally %d, DIMMs booked at %d", got, booked)
	}
	return nil
}

// TestSnapshotAssembledMatchesFullWalk is the property the kept records
// and the checkpoint chain rest on: however ticks and snapshots
// interleave, the frame Snapshot assembles is byte for byte the full
// walk's, and so is the chain MergeSnapshot folds when a random half of
// the snapshots are deltas (AppendDelta) on the last full frame — or on
// the frame a restore started from. Ticks of random size, a snapshot
// after a random third of them, DIMMs registered on first sight (so the
// kept order has arrivals to merge), and inside each run one late
// out-of-order event and one restore into a fresh engine that carries on
// (the restore rebuilds the kept order). Budgeted rows also audit the
// accounting after every tick and every snapshot (checkBooks).
func TestSnapshotAssembledMatchesFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, res := trainedPipeline(t)
	_, stream, _ := snapshotStream(t)
	parts := map[trace.DIMMID]platform.DIMMPart{}
	for _, l := range res.Store.DIMMs() {
		parts[l.ID] = l.Part
	}

	for _, shards := range []int{1, 4} {
		for _, tc := range []struct {
			name   string
			budget int64
			spill  bool
		}{
			{"unbounded", 0, false},
			{"bounded", snapshotPropBudget, false},
			{"bounded-spill", snapshotPropBudget, true},
		} {
			t.Run(fmt.Sprintf("shards%d/%s", shards, tc.name), func(t *testing.T) {
				t.Parallel() // engines are independent; the oracle's full walk is the cost
				build := func() *Server {
					s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
					s.MemoryBudget = tc.budget
					if tc.spill {
						s.Spill = NewMemSpill()
					}
					return s
				}
				s := build()
				books := func(when string, strict bool) {
					t.Helper()
					if tc.budget == 0 {
						return
					}
					if err := checkBooks(s, strict); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				snaps, nDeltas := 0, 0
				chainRng := rand.New(rand.NewSource(int64(7 * shards)))
				var base []byte     // the chain's full frame
				var deltas [][]byte // the deltas taken on it
				check := func(when string) []byte {
					t.Helper()
					var got []byte
					var err error
					if base != nil && chainRng.Intn(2) == 0 {
						var d []byte
						if d, err = s.AppendDelta(nil); err == nil {
							deltas = append(deltas, d)
							got, err = MergeSnapshot(base, deltas...)
							when = fmt.Sprintf("%s, %d-delta chain", when, len(deltas))
							nDeltas++
						}
					} else if got, err = s.Snapshot(); err == nil {
						base, deltas = got, nil
					}
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					want, err := fullWalkSnapshot(s)
					if err != nil {
						t.Fatalf("%s: oracle: %v", when, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: assembled frame (%d bytes) differs from the full walk's (%d bytes)", when, len(got), len(want))
					}
					snaps++
					books(when+", after snapshot", true)
					return got
				}
				ingest := func(when string, tick []trace.Event) {
					t.Helper()
					for _, e := range tick {
						s.RegisterDIMM(e.DIMM, parts[e.DIMM]) // a no-op once the DIMM has state
					}
					if _, err := s.IngestBatch(tick); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					books(when, false)
				}

				rng := rand.New(rand.NewSource(int64(31*shards) + tc.budget))
				lateAt, restoreAt := len(stream)/2, 2*len(stream)/3
				for i, tick := 0, 0; i < len(stream); tick++ {
					j := min(i+1+rng.Intn(1200), len(stream))
					when := fmt.Sprintf("tick %d (events %d-%d)", tick, i, j)
					ingest(when, stream[i:j])
					last := stream[j-1]
					switch {
					case i < lateAt && lateAt <= j:
						// One minute behind the log's tail: ingestLocked's
						// re-sort branch, in the same call as the append,
						// moving an event the kept record already encodes.
						check(when + ", before a late event")
						late := last
						late.Time--
						ingest(when+", late event", []trace.Event{late})
						check(when + ", after a late event")
					case i < restoreAt && restoreAt <= j:
						blob := check(when + ", before restore")
						s = build()
						if err := s.RestoreSnapshot(blob); err != nil {
							t.Fatal(err)
						}
						base, deltas = blob, nil   // the restored engine's last frame
						check(when + ", restored") // every DIMM frozen, no order kept
					case rng.Intn(3) == 0:
						check(when)
					}
					i = j
				}
				check("end of stream")
				ms := s.MemoryStats()
				if tc.budget > 0 && ms.Evictions == 0 {
					t.Fatalf("budget %d never evicted: the frozen and spilled arms went unexercised", tc.budget)
				}
				if nDeltas == 0 {
					t.Fatal("no snapshot was a delta: the chain arm went unexercised")
				}
				t.Logf("%d events, %d snapshots (%d deltas); since restore: %d records written, %d re-encoded, %d evictions, %d rehydrations, %d spills",
					len(stream), snaps, nDeltas, ms.SnapshotRecords, ms.SnapshotReencoded, ms.Evictions, ms.Rehydrations, ms.Spills)
			})
		}
	}
}

// snapshotPropBudget makes the property test's budgeted rows evict
// without thrashing: the fixture fleet's serving state grows to 30 MB
// unbounded, and frozen whole (right after the restore) it is 12 MB — a
// budget below that re-freezes every DIMM a tick thaws, 8,000 times a row.
const snapshotPropBudget = 16 << 20

// TestSnapshotReencodesOnlyChangedDIMMs is the point of keeping records:
// a second snapshot with no ingest in between re-encodes nothing, and one
// event re-encodes one record. A delta carries just as little: none with
// no ingest, the one DIMM an event changed, and a DIMM changed and then
// evicted — frozen in memory or spilled — carries its change mark into
// the next delta.
func TestSnapshotReencodesOnlyChangedDIMMs(t *testing.T) {
	_, s := smallEngine(t)
	snap := func() (records, reencoded int64) {
		t.Helper()
		before := s.MemoryStats()
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		after := s.MemoryStats()
		return after.SnapshotRecords - before.SnapshotRecords, after.SnapshotReencoded - before.SnapshotReencoded
	}
	if rec, re := snap(); rec != 2 || re != 2 {
		t.Fatalf("first snapshot wrote %d records and re-encoded %d, want 2 and 2", rec, re)
	}
	if rec, re := snap(); rec != 2 || re != 0 {
		t.Fatalf("snapshot with no ingest since the last wrote %d records and re-encoded %d, want 2 and 0", rec, re)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	if _, err := ingestOne(s, trace.Event{Time: 400 * trace.Day, Type: trace.TypeUE, DIMM: id}); err != nil {
		t.Fatal(err)
	}
	if rec, re := snap(); rec != 2 || re != 1 {
		t.Fatalf("snapshot after one event wrote %d records and re-encoded %d, want 2 and 1", rec, re)
	}

	base, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]byte
	delta := func(want ...trace.DIMMID) {
		t.Helper()
		d, err := s.AppendDelta(nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := readFrame(d, deltaMagic)
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.DIMMID
		for _, rc := range recs {
			got = append(got, rc.id)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delta carries %v, want %v", got, want)
		}
		chain = append(chain, d)
		merged, err := MergeSnapshot(base, chain...)
		if err != nil {
			t.Fatal(err)
		}
		if full, err := fullWalkSnapshot(s); err != nil || !bytes.Equal(merged, full) {
			t.Fatalf("chain of %d deltas merges to a frame that is not the full walk's (%v)", len(chain), err)
		}
	}
	delta()
	delta()
	if _, err := ingestOne(s, trace.Event{Time: 401 * trace.Day, Type: trace.TypeUE, DIMM: id}); err != nil {
		t.Fatal(err)
	}
	delta(id)
	// Change both DIMMs, then evict the first in memory and spill the second.
	ids := []trace.DIMMID{{Platform: platform.Purley, Server: 0, Slot: 0}, id}
	for i, d := range ids {
		if _, err := ingestOne(s, trace.Event{Time: 402 * trace.Day, Type: trace.TypeUE, DIMM: d}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			s.Spill = NewMemSpill()
		}
		sh := s.shardFor(d)
		sh.mu.Lock()
		s.freezeLocked(sh, sh.dimms[d])
		sh.mu.Unlock()
	}
	if ms := s.MemoryStats(); ms.FrozenDIMMs != 2 || ms.Spills != 1 {
		t.Fatalf("%d DIMMs frozen and %d spilled, want 2 and 1", ms.FrozenDIMMs, ms.Spills)
	}
	delta(ids...)
	delta()
}

// TestSnapshotConcurrentWithServing: the kept order and records are
// reached from registration, ingest and snapshot at once. A
// snapshot holds every shard lock, so whatever interleaving the scheduler
// picks each frame restores, and once the writers are done the assembled
// frame is the full walk's. Run under -race by make test-race.
func TestSnapshotConcurrentWithServing(t *testing.T) {
	reg, s := smallEngine(t)
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < 150; d++ {
				id := trace.DIMMID{Platform: platform.Purley, Server: 100 + d, Slot: g}
				s.RegisterDIMM(id, part)
				if _, err := ingestOne(s, trace.Event{Time: trace.Minutes(d), Type: trace.TypeUE, DIMM: id}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			blob, err := s.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			fresh := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
			if err := fresh.RestoreSnapshot(blob); err != nil {
				t.Errorf("snapshot %d taken while serving does not restore: %v", i, err)
			}
		}
	}()
	wg.Wait()
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullWalkSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("assembled frame differs from the full walk's after concurrent serving")
	}
}

// TestSpillBoundedIngest runs the bounded eviction churn of
// TestEvictionTransparent with a spill store underneath: the alarm stream
// must stay byte-identical while frozen records actually leave the heap
// (spill counters move, and thaws read records back). The whole stream
// runs on MemSpill; a short prefix runs through DirSpill, so the
// directory store also sees the engine's Put, Get and Delete traffic
// without a file write per eviction of the whole stream.
func TestSpillBoundedIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, stream, register := snapshotStream(t)

	run := func(stream []trace.Event, budget int64, spill SpillStore) ([]Alarm, MemoryStats) {
		s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 4)
		s.MemoryBudget = budget
		s.Spill = spill
		register(s)
		return ingestChunks(t, s, stream), s.MemoryStats()
	}
	check := func(name string, stream []trace.Event, spill SpillStore) {
		t.Helper()
		want, _ := run(stream, 0, nil)
		if len(want) == 0 {
			t.Fatalf("%s: no alarms; fixture proves nothing", name)
		}
		got, ms := run(stream, 64<<10, spill)
		if ms.Spills == 0 {
			t.Fatalf("%s: spill never exercised (evictions=%d)", name, ms.Evictions)
		}
		if ms.SpilledBytes < 0 {
			t.Fatalf("%s: spilled-bytes gauge went negative: %d", name, ms.SpilledBytes)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d alarms with spill, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: alarm %d differs with spill:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}

	check("MemSpill", stream, NewMemSpill())

	dir, err := NewDirSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSpill{SpillStore: dir}
	check("DirSpill", stream[:len(stream)/8], cs)
	if cs.puts == 0 || cs.gets == 0 || cs.deletes == 0 {
		t.Fatalf("DirSpill saw %d puts, %d gets and %d deletes; want each", cs.puts, cs.gets, cs.deletes)
	}
}

// countingSpill counts the calls a SpillStore receives.
type countingSpill struct {
	SpillStore
	mu                  sync.Mutex
	puts, gets, deletes int
}

func (c *countingSpill) Put(key string, data []byte) error {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	return c.SpillStore.Put(key, data)
}

func (c *countingSpill) Get(key string) ([]byte, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.SpillStore.Get(key)
}

func (c *countingSpill) Delete(key string) error {
	c.mu.Lock()
	c.deletes++
	c.mu.Unlock()
	return c.SpillStore.Delete(key)
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
	appendFrozenRec(&w, id, &frozenDIMM{part: part, events: 1 << 62, blob: []byte{0, 2, 0}})
	return w.Buf
}

// smallEngine serves a few synthetic DIMMs (CEs, a UE, a storm; one log
// long enough to have been compacted) under a budget.
func smallEngine(tb testing.TB) (*Registry, *Server) {
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
				Addr: dram.Addr{Rank: uint8(i % 2), Device: uint8(i % 18), Bank: uint8(i % 16), Row: uint32(100 + i%3), Column: uint16(i % 7)},
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
	return reg, s
}

// smallSnapshot is smallEngine's snapshot together with a registry to
// restore it against.
func smallSnapshot(tb testing.TB) (*Registry, []byte) {
	tb.Helper()
	reg, s := smallEngine(tb)
	blob, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return reg, blob
}

// TestSnapshotGoldenBytes pins the MFS4 layout on one tiny engine: a
// single DIMM whose log (CEs on two cells, a storm, a UE) has been
// compacted, so the frame carries the serving scalars, the compaction
// bookkeeping, a fold state — two instants, the sorted (cell, count)
// list — and the retained events in the trace log form.
// Refactors of the snapshot, fold-state or classifier codecs must not move
// a byte of it; a deliberate change takes a new magic.
func TestSnapshotGoldenBytes(t *testing.T) {
	blob, err := goldenEngine(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const want = "4d465334010c496e74656c5f5075726c657906020a41342d323636362d3332c0f70100000c0a000280870101010080e1010100c07002021208c8010004021208c80102060644c04300021208c801000840a00b00021208c80102088001a00b00021208c80100088002a00b00021208c80102088004a00b01021208c80100a00b00021208c80102088010"
	if got := hex.EncodeToString(blob); got != want {
		t.Fatalf("MFS4 bytes moved:\n got %s\nwant %s", got, want)
	}
}

// goldenEngine is TestSnapshotGoldenBytes' engine: one DIMM, its log
// (CEs on two cells, a storm, a UE) compacted.
func goldenEngine(tb testing.TB) *Server {
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
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 1)
	s.MemoryBudget = 1 << 20
	id := trace.DIMMID{Platform: platform.Purley, Server: 3, Slot: 1}
	s.RegisterDIMM(id, part)
	var events []trace.Event
	for i := 0; i < 12; i++ {
		e := trace.Event{Time: trace.Minutes(i) * trace.Day, Type: trace.TypeCE, DIMM: id,
			Addr: dram.Addr{Rank: 1, Device: 9, Bank: 4, Row: 100, Column: uint16(i % 2)},
			Bits: dram.ErrorBits{Width: part.Width, Mask: 1 << i}}
		switch i {
		case 2:
			e.Type, e.Addr, e.Bits = trace.TypeStorm, dram.Addr{}, dram.ErrorBits{}
		case 10:
			e.Type, e.Bits = trace.TypeUE, dram.ErrorBits{}
		}
		events = append(events, e)
	}
	if _, err := s.IngestBatch(events); err != nil {
		tb.Fatal(err)
	}
	if ms := s.MemoryStats(); ms.CompactedEvents < 4 {
		tb.Fatalf("fixture compacted %d events: the frame's fold state holds no repeated cell", ms.CompactedEvents)
	}
	return s
}

// TestRestoreSnapshotRefusesBadRecords: a record whose count its blob
// cannot hold is refused at restore time, and an MFS3, MFS2 or MFS1
// snapshot or an MFD1 delta is refused by name, whether restored or merged.
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
	for _, magic := range []string{"MFS3", "MFD1", "MFS2", "MFS1"} {
		old := append([]byte(magic), good[4:]...)
		if err := s.RestoreSnapshot(old); err == nil || !strings.Contains(err.Error(), magic+" engine snapshot") {
			t.Errorf("%s snapshot: %v", magic, err)
		}
		if _, err := MergeSnapshot(good, old); err == nil || !strings.Contains(err.Error(), magic+" engine snapshot") {
			t.Errorf("%s delta merged: %v", magic, err)
		}
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
			ingestOne(s, trace.Event{Time: 400 * trace.Day, Type: trace.TypeCE, DIMM: id,
				Bits: dram.ErrorBits{Width: dram.X4, Mask: 1}})
		}
	})
}

// FuzzMergeSnapshot feeds an arbitrary base and delta to MergeSnapshot —
// the chain a control plane's store hands back for a rejoin: a chain is
// refused, or it merges into a frame RestoreSnapshot accepts. Seeded from
// TestSnapshotGoldenBytes' frame and a delta taken on it after one event.
func FuzzMergeSnapshot(f *testing.F) {
	s := goldenEngine(f)
	base, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ingestOne(s, trace.Event{Time: 20 * trace.Day, Type: trace.TypeUE, DIMM: trace.DIMMID{Platform: platform.Purley, Server: 3, Slot: 1},
		Addr: dram.Addr{Rank: 1, Device: 9, Bank: 4, Row: 100, Column: 1}}); err != nil {
		f.Fatal(err)
	}
	delta, err := s.AppendDelta(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base, delta)
	f.Add(base, []byte(deltaMagic))
	f.Add(lyingSnapshot(f), delta)
	f.Add(base, append([]byte(deltaMagic), base[5:]...))
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		merged, err := MergeSnapshot(base, delta)
		if err != nil {
			return
		}
		s := NewShardedServer(platform.Purley, NewFeatureStore(), NewRegistry(), "m", nil, 2)
		if err := s.RestoreSnapshot(merged); err != nil {
			t.Fatalf("merged chain refused by RestoreSnapshot: %v", err)
		}
	})
}
