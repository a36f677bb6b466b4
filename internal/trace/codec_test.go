package trace

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/platform"
)

func TestBinPrimitivesRoundTrip(t *testing.T) {
	var w BinWriter
	w.Uvarint(0)
	w.Uvarint(1<<63 + 12345)
	w.Varint(-1 << 40)
	w.Varint(42)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.String("héllo wire")
	w.Bytes([]byte{1, 2, 3})
	w.Float64(math.Pi)
	w.Float64(math.Copysign(0, -1)) // -0.0: raw-bits exactness

	r := NewBinReader(w.Buf)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint 0: got %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+12345 {
		t.Fatalf("uvarint big: got %d", got)
	}
	if got := r.Varint(); got != -1<<40 {
		t.Fatalf("varint neg: got %d", got)
	}
	if got := r.Varint(); got != 42 {
		t.Fatalf("varint 42: got %d", got)
	}
	if got := r.Byte(); got != 0xAB {
		t.Fatalf("byte: got %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools scrambled")
	}
	if got := r.String(); got != "héllo wire" {
		t.Fatalf("string: got %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes: got %v", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Fatalf("float: got %v", got)
	}
	if got := r.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0.0 bits perturbed: got %x", math.Float64bits(got))
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("remaining=%d err=%v", r.Remaining(), r.Err())
	}
	// Reads past the end latch an error and return zero values.
	if got := r.Uvarint(); got != 0 || r.Err() == nil {
		t.Fatal("read past end did not latch an error")
	}
}

// randomEvents builds a batch of random events over real catalog parts,
// so the text codec (which resolves bit widths through the catalog) can
// serve as the oracle. Returns the events and each event's part number.
func randomEvents(rng *rand.Rand, n int) ([]Event, []string) {
	catalog := platform.Catalog()
	platforms := platform.All()
	events := make([]Event, 0, n)
	parts := make([]string, 0, n)
	tm := Minutes(rng.Intn(1000))
	for i := 0; i < n; i++ {
		part := catalog[rng.Intn(len(catalog))]
		// Arrival order wanders: deltas may be negative.
		tm += Minutes(rng.Intn(2000) - 200)
		e := Event{
			Time: tm,
			Type: EventType(rng.Intn(3)),
			DIMM: DIMMID{
				Platform: platforms[rng.Intn(len(platforms))],
				Server:   rng.Intn(100000),
				Slot:     rng.Intn(24),
			},
		}
		if e.Type == TypeCE || e.Type == TypeUE {
			e.Addr = dram.Addr{
				Rank:   uint8(rng.Intn(4)),
				Device: uint8(rng.Intn(18)),
				Bank:   uint8(rng.Intn(16)),
				Row:    uint32(rng.Intn(1 << 17)),
				Column: uint16(rng.Intn(1 << 10)),
			}
		}
		if e.Type == TypeCE {
			e.Bits = dram.NewErrorBits(part.Width)
			for b := 0; b < 1+rng.Intn(4); b++ {
				e.Bits.Set(rng.Intn(int(part.Width)), rng.Intn(dram.BurstLength))
			}
		}
		events = append(events, e)
		parts = append(parts, part.PartNumber)
	}
	return events, parts
}

// TestEventFrameMatchesTextCodec is the equivalence oracle: over random
// event batches, decoding the binary frame must yield exactly what
// encoding and re-decoding the BMC text lines yields — same events, same
// recorded part numbers.
func TestEventFrameMatchesTextCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		events, parts := randomEvents(rng, rng.Intn(200))
		partOf := map[DIMMID]string{}
		for i, e := range events {
			partOf[e.DIMM] = parts[i]
		}
		// A DIMM keeps one part; rewrite parts through the map so both
		// codecs see a consistent assignment.
		for i, e := range events {
			parts[i] = partOf[e.DIMM]
		}

		frame := AppendEventFrame(nil, events, func(id DIMMID) string { return partOf[id] })
		gotEvents, gotParts, err := DecodeEventFrame(frame)
		if err != nil {
			t.Fatalf("trial %d: decode frame: %v", trial, err)
		}

		for i, e := range events {
			part, err := platform.PartByNumber(parts[i])
			if err != nil {
				t.Fatal(err)
			}
			wantEvent, wantPart, err := DecodeEvent(EncodeEvent(e, part))
			if err != nil {
				t.Fatalf("trial %d: text oracle rejects event %d: %v", trial, i, err)
			}
			if gotEvents[i] != wantEvent {
				t.Fatalf("trial %d event %d: binary %+v != text %+v", trial, i, gotEvents[i], wantEvent)
			}
			if gotParts[i] != wantPart {
				t.Fatalf("trial %d event %d: part %q != %q", trial, i, gotParts[i], wantPart)
			}
		}
		if len(gotEvents) != len(events) || len(gotParts) != len(parts) {
			t.Fatalf("trial %d: length mismatch", trial)
		}
	}
}

// TestEventFrameRejectsCorruption truncates and mutates valid frames:
// decoding must fail cleanly (or still parse, for bytes the codec never
// reads back) — never panic.
func TestEventFrameRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events, parts := randomEvents(rng, 40)
	partOf := map[DIMMID]string{}
	for i, e := range events {
		partOf[e.DIMM] = parts[i]
	}
	frame := AppendEventFrame(nil, events, func(id DIMMID) string { return partOf[id] })
	if _, _, err := DecodeEventFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for cut := 0; cut < len(frame); cut += 7 {
		DecodeEventFrame(frame[:cut]) // must not panic; error expected but not required at every cut
	}
	for i := 0; i < len(frame); i += 3 {
		mutated := bytes.Clone(frame)
		mutated[i] ^= 0xFF
		DecodeEventFrame(mutated) // must not panic
	}
	if _, _, err := DecodeEventFrame(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, _, err := DecodeEventFrame([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// An event is at least six bytes and the decoder sizes its slices by
	// the declared count: ten events in thirty bytes is refused up front.
	w := BinWriter{Buf: []byte(eventFrameMagic)}
	w.Uvarint(0) // empty string table
	w.Uvarint(10)
	w.Raw(make([]byte, 30))
	if _, _, err := DecodeEventFrame(w.Buf); err == nil || !strings.Contains(err.Error(), "declares 10 events") {
		t.Fatalf("10 events declared in 30 bytes: %v", err)
	}
	// An address that does not pack into a cell ID is refused by field,
	// value and width, whatever the event type carrying it; so is a CE bit
	// width other than x4 or x8, by value.
	for _, c := range []struct {
		typ   EventType
		addr  [5]int64 // rank, device, bank, row, column
		width int64
		want  string
	}{
		{TypeCE, [5]int64{0, 0, 0, 1 << 24, 0}, 4, "row 16777216 outside its 24-bit cell-ID field"},
		{TypeUE, [5]int64{0, 0, 0, 0, -1}, 0, "column -1 outside its 16-bit cell-ID field"},
		{TypeCE, [5]int64{1, 2, 3, 4, 5}, 0, "CE bit width 0 is neither x4 nor x8"},
		{TypeCE, [5]int64{1, 2, 3, 4, 5}, 1000, "CE bit width 1000 is neither x4 nor x8"},
	} {
		frame := hostileFrame(events[:3], func(id DIMMID) string { return partOf[id] }, c.typ, c.addr, c.width)
		if _, _, err := DecodeEventFrame(frame); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v address %v width %d: %v, want %q", c.typ, c.addr, c.width, err, c.want)
		}
	}
}

// TestEventFrameAllocsFlatInSize encodes frames shaped like a served
// tick (one platform, a few dozen DIMMs over three parts, CEs only) at 64
// and 1,024 events. Both carry the same string table, so the allocations
// must be the same: the body is sized once from maxEventBytes. The frame
// must also keep its tight capacity, since the control plane's journal
// retains it.
func TestEventFrameAllocsFlatInSize(t *testing.T) {
	events, f := servedTick()
	var frame []byte
	small := testing.AllocsPerRun(20, func() { frame = AppendEventFrame(nil, events[:64], f) })
	large := testing.AllocsPerRun(20, func() { frame = AppendEventFrame(nil, events, f) })
	if large != small {
		t.Errorf("a 1,024-event frame costs %v allocations, a 64-event frame %v: the buffers regrow", large, small)
	}
	if c, n := cap(frame), len(frame); c > n+n/8+8 {
		t.Errorf("frame of %d bytes keeps capacity %d", n, c)
	}
}

// TestEventFrameEncoderReusesScratch: an encoder kept from frame to frame,
// as the control plane keeps one, allocates about the frames it returns
// and not its worst-case body scratch (about six times a served frame),
// and what it encodes does not depend on what it encoded before.
func TestEventFrameEncoderReusesScratch(t *testing.T) {
	events, f := servedTick()
	var enc EventFrameEncoder
	for _, n := range []int{1024, 64, 1024} {
		if got, want := enc.Append(nil, events[:n], f), AppendEventFrame(nil, events[:n], f); !bytes.Equal(got, want) {
			t.Fatalf("%d events: a kept encoder's frame differs from a fresh one's", n)
		}
	}
	var frame []byte
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		frame = enc.Append(nil, events, f)
	}
	runtime.ReadMemStats(&after)
	if perFrame, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(cap(frame)+cap(frame)/2); perFrame > limit {
		t.Errorf("a kept encoder allocates %d bytes per %d-byte frame, want at most %d", perFrame, len(frame), limit)
	}
}

// servedTick is 1,024 events shaped like a served tick (one platform, 32
// DIMMs over three parts, CEs only) and the part lookup to encode them.
func servedTick() ([]Event, func(DIMMID) string) {
	rng := rand.New(rand.NewSource(5))
	catalog := platform.Catalog()
	ids := make([]DIMMID, 32)
	partOf := map[DIMMID]string{}
	for i := range ids {
		ids[i] = DIMMID{Platform: platform.Purley, Server: 1000 + i/8, Slot: i % 8}
		partOf[ids[i]] = catalog[i%3].PartNumber
	}
	events := make([]Event, 1024)
	tm := Minutes(200000)
	for i := range events {
		tm += Minutes(rng.Intn(30))
		events[i] = Event{Time: tm, Type: TypeCE, DIMM: ids[i%len(ids)], Addr: dram.Addr{
			Rank: uint8(rng.Intn(2)), Device: uint8(rng.Intn(18)), Bank: uint8(rng.Intn(16)),
			Row: uint32(rng.Intn(1 << 17)), Column: uint16(rng.Intn(1 << 10))}}
		events[i].Bits = dram.NewErrorBits(dram.X4)
		events[i].Bits.Set(rng.Intn(4), rng.Intn(dram.BurstLength))
	}
	return events, func(id DIMMID) string { return partOf[id] }
}

// hostileFrame encodes events followed by one more event of type typ on a
// Purley DIMM, then writes that last event's address varints (and, for a
// CE, its bit width) as given: the bytes of a peer that lies, which no
// Event can hold.
func hostileFrame(events []Event, partOf func(DIMMID) string, typ EventType, addr [5]int64, width int64) []byte {
	e := Event{Time: 5000, Type: typ, DIMM: DIMMID{Platform: platform.Purley, Server: 1, Slot: 2}}
	if typ == TypeCE {
		e.Bits = dram.ErrorBits{Width: dram.X4, Mask: 1}
	}
	frame := AppendEventFrame(nil, append(events[:len(events):len(events)], e), partOf)
	w := BinWriter{Buf: frame[:len(frame)-len(appendEventFields(nil, &e))]}
	for _, v := range addr {
		w.Varint(v)
	}
	if typ == TypeCE {
		w.Varint(width)
		w.Uvarint(e.Bits.Mask)
	}
	return w.Buf
}

func FuzzDecodeEventFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	events, parts := randomEvents(rng, 25)
	partOf := map[DIMMID]string{}
	for i, e := range events {
		partOf[e.DIMM] = parts[i]
	}
	f.Add(AppendEventFrame(nil, events, func(id DIMMID) string { return partOf[id] }))
	f.Add([]byte(eventFrameMagic))
	f.Add([]byte{})
	part := func(DIMMID) string { return "A4-2666-32" }
	f.Add(hostileFrame(nil, part, TypeCE, [5]int64{0, 0, 1 << 8, 0, 0}, 4))
	f.Add(hostileFrame(nil, part, TypeUE, [5]int64{0, -1, 0, 0, 0}, 0))
	f.Add(hostileFrame(nil, part, TypeCE, [5]int64{0, 0, 0, 0, 0}, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, ps, err := DecodeEventFrame(data)
		if err != nil {
			return
		}
		if len(evs) != len(ps) {
			t.Fatalf("events/parts length skew: %d vs %d", len(evs), len(ps))
		}
		for _, e := range evs {
			checkDecoded(t, e)
		}
	})
}

// TestEventFrameGoldenBytes pins the MFE1 layout on one fixed frame (a
// CE, a storm of another DIMM earlier in time, a UE): refactors of the
// codec must not move a byte of the wire.
func TestEventFrameGoldenBytes(t *testing.T) {
	a := DIMMID{Platform: platform.Purley, Server: 12, Slot: 3}
	b := DIMMID{Platform: platform.K920, Server: 7, Slot: 0}
	events := []Event{
		{Time: 1000, Type: TypeCE, DIMM: a, Addr: dram.Addr{Rank: 1, Device: 5, Bank: 9, Row: 70000, Column: 513},
			Bits: dram.ErrorBits{Width: dram.X4, Mask: 0x8421}},
		{Time: 990, Type: TypeStorm, DIMM: b},
		{Time: 1500, Type: TypeUE, DIMM: a, Addr: dram.Addr{Rank: 0, Device: 17, Bank: 2, Row: 3, Column: 4}},
	}
	frame := AppendEventFrame(nil, events, func(id DIMMID) string {
		if id == a {
			return "A4-2666-32"
		}
		return "K-part"
	})
	const want = "4d464531040c496e74656c5f5075726c65790a41342d323636362d3332044b393230064b2d7061727403d00f0000180601020a12e0c508820808a188021302020e0003fc0701001806010022040608"
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("MFE1 bytes moved:\n got %s\nwant %s", got, want)
	}
}

// sortedLog turns a random batch into one DIMM's time-sorted log.
func sortedLog(rng *rand.Rand, n int, id DIMMID) []Event {
	events, _ := randomEvents(rng, n)
	for i := range events {
		events[i].DIMM = id
	}
	sort.Stable(ByTime(events))
	return events
}

// TestLogEventsRoundTrip: over random sorted logs of all three event
// types the log form decodes to exactly what was encoded, every strict
// prefix of the bytes is an error, and a count the bytes cannot hold is
// refused before anything is allocated.
func TestLogEventsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	id := DIMMID{Platform: platform.Purley, Server: 12, Slot: 3}
	for trial := 0; trial < 50; trial++ {
		log := sortedLog(rng, rng.Intn(200), id)
		blob := AppendLogEventsAfter(nil, 0, log)
		r := NewBinReader(blob)
		got, err := ReadLogEvents(r, len(log), id)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(log) || r.Remaining() != 0 {
			t.Fatalf("trial %d: %d events with %d bytes left, want %d and 0", trial, len(got), r.Remaining(), len(log))
		}
		for i := range log {
			if got[i] != log[i] {
				t.Fatalf("trial %d event %d: got %+v, want %+v", trial, i, got[i], log[i])
			}
		}
		for cut := 0; cut < len(blob); cut += 5 {
			if _, err := ReadLogEvents(NewBinReader(blob[:cut]), len(log), id); err == nil {
				t.Fatalf("trial %d: %d of %d bytes decoded %d events without error", trial, cut, len(blob), len(log))
			}
		}
	}
	if _, err := ReadLogEvents(NewBinReader([]byte{0, 2, 0}), 1<<62, id); err == nil {
		t.Fatal("a count of 1<<62 over 3 bytes was accepted")
	}
	if _, err := ReadLogEvents(NewBinReader([]byte{0, 9}), 1, id); err == nil {
		t.Fatal("unknown event type accepted")
	}
}

// TestLogEventsPinnedSize pins the log form's size on one seeded log
// against the MFS1 blob it replaced, which wrote address and bit fields
// for every event type: 3873 bytes for this log at the commit before the
// switch. The engine's eviction accounting counts these bytes, so the
// form may not grow.
func TestLogEventsPinnedSize(t *testing.T) {
	log := sortedLog(rand.New(rand.NewSource(5)), 300, DIMMID{Platform: platform.Purley, Server: 12, Slot: 3})
	const mfs1Bytes, want = 3873, 3014 // 104 UEs shed 2 bytes each, 93 storms 7
	if got := len(AppendLogEventsAfter(nil, 0, log)); got != want || got > mfs1Bytes {
		t.Fatalf("log form is %d bytes, want %d (MFS1 blob: %d)", got, want, mfs1Bytes)
	}
}
