package trace

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

// TestEventLayout pins the in-memory size of a served event: a DIMM's log
// holds every event it was sent, so a field widened past what the decoders
// admit, or a reorder that brings padding back, is a heap regression on
// every served DIMM. It fails by name instead of as a quiet one.
func TestEventLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
		layout    string
	}{
		{"trace.Event", unsafe.Sizeof(Event{}), 72, "Time int64, DIMM {Platform string, Server, Slot int}, Bits, Addr, Type uint8"},
		{"dram.Addr", unsafe.Sizeof(dram.Addr{}), 12, "Row uint32, Column uint16, Rank, Device, Bank uint8"},
		{"dram.ErrorBits", unsafe.Sizeof(dram.ErrorBits{}), 16, "Mask uint64, Width uint8"},
		{"trace.Signature", unsafe.Sizeof(Signature{}), 4, "DQ, Beat, DQI, BI uint8"},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d: keep its fields at %s, in that order", c.name, c.got, c.want, c.layout)
		}
	}
}

func testPart(t *testing.T) platform.DIMMPart {
	t.Helper()
	p, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkCE(t Minutes, id DIMMID, row, col int) Event {
	bits := dram.NewErrorBits(dram.X4)
	bits.Set(0, 0)
	return Event{Time: t, Type: TypeCE, DIMM: id,
		Addr: dram.Addr{Rank: 0, Device: 1, Bank: 2, Row: uint32(row), Column: uint16(col)}, Bits: bits}
}

func TestStoreRegisterAppend(t *testing.T) {
	s := NewStore()
	id := DIMMID{Platform: platform.Purley, Server: 1, Slot: 2}
	if _, err := s.Register(id, testPart(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(id, testPart(t)); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := s.Append(mkCE(5, id, 1, 1)); err != nil {
		t.Fatal(err)
	}
	other := DIMMID{Platform: platform.Purley, Server: 9, Slot: 0}
	if err := s.Append(mkCE(5, other, 1, 1)); err == nil {
		t.Error("append to unregistered DIMM should fail")
	}
	if s.Len() != 1 || s.CountEvents(TypeCE) != 1 {
		t.Errorf("store counts wrong: len=%d ce=%d", s.Len(), s.CountEvents(TypeCE))
	}
}

func TestDIMMLogQueries(t *testing.T) {
	id := DIMMID{Platform: platform.Purley, Server: 0, Slot: 0}
	l := &DIMMLog{ID: id, Part: testPart(t)}
	l.Events = []Event{
		mkCE(100, id, 1, 1),
		{Time: 50, Type: TypeUE, DIMM: id},
		mkCE(10, id, 2, 2),
	}
	l.SortEvents()
	if l.Events[0].Time != 10 || l.Events[2].Time != 100 {
		t.Fatalf("sort failed: %+v", l.Events)
	}
	if ce, ok := l.FirstCE(); !ok || ce != 10 {
		t.Errorf("FirstCE = %v %v", ce, ok)
	}
	if ue, ok := l.FirstUE(); !ok || ue != 50 {
		t.Errorf("FirstUE = %v %v", ue, ok)
	}
	if got := len(l.CEsBetween(0, 50)); got != 1 {
		t.Errorf("CEsBetween(0,50) = %d, want 1", got)
	}
	if got := len(l.CEs()); got != 2 {
		t.Errorf("CEs() = %d, want 2", got)
	}
	if got := len(allOf(l, TypeUE)); got != 1 {
		t.Errorf("UEs = %d, want 1", got)
	}
}

func TestDIMMIDOrdering(t *testing.T) {
	a := DIMMID{Platform: platform.K920, Server: 1, Slot: 1}
	b := DIMMID{Platform: platform.Purley, Server: 0, Slot: 0}
	// "Intel_Purley" < "K920" lexically.
	if !b.Less(a) || a.Less(b) {
		t.Error("platform ordering wrong")
	}
	c := DIMMID{Platform: platform.K920, Server: 1, Slot: 2}
	if !a.Less(c) || c.Less(a) {
		t.Error("slot ordering wrong")
	}
}

func TestEncodeDecodeEvent(t *testing.T) {
	id := DIMMID{Platform: platform.Whitley, Server: 42, Slot: 7}
	part := testPart(t)
	bits := dram.NewErrorBits(dram.X4)
	bits.Set(1, 2)
	bits.Set(3, 6)
	for _, e := range []Event{
		{Time: 1234, Type: TypeCE, DIMM: id,
			Addr: dram.Addr{Rank: 1, Device: 16, Bank: 15, Row: 99, Column: 3}, Bits: bits},
		{Time: 99999, Type: TypeUE, DIMM: id,
			Addr: dram.Addr{Rank: 0, Device: 2, Bank: 1, Row: 7, Column: 8}},
		{Time: 5, Type: TypeStorm, DIMM: id},
	} {
		line := EncodeEvent(e, part)
		back, pn, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		if pn != part.PartNumber {
			t.Errorf("part number %q, want %q", pn, part.PartNumber)
		}
		if back.Time != e.Time || back.Type != e.Type || back.DIMM != e.DIMM {
			t.Errorf("identity mismatch: %+v vs %+v", back, e)
		}
		if e.Type != TypeStorm && back.Addr != e.Addr {
			t.Errorf("addr mismatch: %+v vs %+v", back.Addr, e.Addr)
		}
		if e.Type == TypeCE && back.Bits.Mask != e.Bits.Mask {
			t.Errorf("bits mismatch: %v vs %v", back.Bits, e.Bits)
		}
	}
}

// checkDecoded fails t unless an accepted CE or UE address round-trips
// through its cell ID unchanged and an accepted CE's bit width is x4 or
// x8 and its bits a grid (checkGrid).
func checkDecoded(t *testing.T, e Event) {
	t.Helper()
	if (e.Type == TypeCE || e.Type == TypeUE) && dram.CellAddr(e.Addr.CellID()) != e.Addr {
		t.Fatalf("accepted %v address %v unpacks to %v", e.Type, e.Addr, dram.CellAddr(e.Addr.CellID()))
	}
	if e.Type == TypeCE && e.Bits.Width != dram.X4 && e.Bits.Width != dram.X8 {
		t.Fatalf("accepted CE with bit width %d", e.Bits.Width)
	}
	if e.Type == TypeCE {
		checkGrid(t, e.Bits)
	}
}

// checkGrid fails unless b renders as a beat × DQ grid ("none" when
// empty) that parses back to b: a mask bit past the width's burst would
// render as no grid cell at all.
func checkGrid(t *testing.T, b dram.ErrorBits) {
	t.Helper()
	s := b.String()
	if back, err := dram.ParseErrorBits(b.Width, s); s == "" || err != nil || back != b {
		t.Fatalf("accepted CE bits %#x (%v) render as %q, which parses back to %#x (%v)", b.Mask, b.Width, s, back.Mask, err)
	}
}

func TestDecodeEventRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"XYZ 1 CE Intel_Purley 0 0 A4-2666-32",
		"MEM x CE Intel_Purley 0 0 A4-2666-32",
		"MEM 1 WHAT Intel_Purley 0 0 A4-2666-32",
		"MEM 1 CE Intel_Purley 0 0 A4-2666-32", // missing addr fields
		"MEM 1 CE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=0 col=0", // missing bits
		"MEM 1 CE Intel_Purley 0 0 NOPE rank=0 dev=0 bank=0 row=0 col=0 bits=b0:0001",
	} {
		if _, _, err := DecodeEvent(line); err == nil {
			t.Errorf("DecodeEvent(%q) should fail", line)
		}
	}
	// An address outside the cell-ID fields is refused by field and value.
	for line, want := range map[string]string{
		"MEM 1 UE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=16777216 col=0": "row 16777216 outside its 24-bit",
		"MEM 1 UE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=0 col=-1":       "column -1 outside its 16-bit",
	} {
		if _, _, err := DecodeEvent(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DecodeEvent(%q) = %v, want %q", line, err, want)
		}
	}
}

// FuzzDecodeEvent feeds arbitrary lines to the BMC text parser, the first
// thing a collected log meets. It must not panic, and whatever it accepts
// must survive the encoder: encoding the decoded event under its part
// number and decoding that line again gives the same event and part.
func FuzzDecodeEvent(f *testing.F) {
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		f.Fatal(err)
	}
	id := DIMMID{Platform: platform.Purley, Server: 3, Slot: 11}
	bits := dram.NewErrorBits(part.Width)
	bits.Set(0, 1)
	bits.Set(2, 7)
	for _, e := range []Event{
		{Time: 1234, Type: TypeCE, DIMM: id, Addr: dram.Addr{Rank: 1, Device: 4, Bank: 15, Row: 99, Column: 3}, Bits: bits},
		{Time: 99999, Type: TypeUE, DIMM: id, Addr: dram.Addr{Device: 2, Bank: 1, Row: 7, Column: 8}},
		{Time: 5, Type: TypeStorm, DIMM: id},
		{Time: 8, Type: TypeUE, DIMM: id, Addr: dram.Addr{Row: 1 << 24}},
	} {
		f.Add(EncodeEvent(e, part))
	}
	f.Add("MEM 77 CE Intel_Purley 3 11 A4-2666-32 rank=0 dev=0 bank=0 row=-1 col=0 bits=none")
	f.Fuzz(func(t *testing.T, line string) {
		e, pn, err := DecodeEvent(line)
		if err != nil {
			return
		}
		checkDecoded(t, e)
		again := EncodeEvent(e, platform.DIMMPart{PartNumber: pn})
		back, pn2, err := DecodeEvent(again)
		if err != nil {
			t.Fatalf("%q decoded, its re-encoding %q does not: %v", line, again, err)
		}
		if back != e || pn2 != pn {
			t.Fatalf("%q -> %+v %q, re-encoded %q -> %+v %q", line, e, pn, again, back, pn2)
		}
	})
}

func TestStoreRoundTrip(t *testing.T) {
	rng := xrand.New(17)
	s := NewStore()
	part := testPart(t)
	for d := 0; d < 5; d++ {
		id := DIMMID{Platform: platform.Purley, Server: d, Slot: d % 3}
		if _, err := s.Register(id, part); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			e := mkCE(Minutes(rng.Intn(10000)), id, rng.Intn(100), rng.Intn(100))
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(Event{Time: 20000, Type: TypeUE, DIMM: id,
			Addr: dram.Addr{Rank: 0, Device: 0, Bank: 0, Row: 1, Column: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.SortAll()
	var buf bytes.Buffer
	if err := WriteStore(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("DIMM count %d → %d", s.Len(), back.Len())
	}
	if back.CountEvents(TypeCE) != s.CountEvents(TypeCE) ||
		back.CountEvents(TypeUE) != s.CountEvents(TypeUE) {
		t.Error("event counts changed in round trip")
	}
	for _, l := range s.DIMMs() {
		bl := back.Get(l.ID)
		if bl == nil {
			t.Fatalf("DIMM %s lost", l.ID)
		}
		if len(bl.Events) != len(l.Events) {
			t.Fatalf("DIMM %s events %d → %d", l.ID, len(l.Events), len(bl.Events))
		}
		for i := range l.Events {
			if l.Events[i].Time != bl.Events[i].Time || l.Events[i].Addr != bl.Events[i].Addr {
				t.Fatalf("DIMM %s event %d mismatch", l.ID, i)
			}
		}
	}
}

func TestReadStoreSkipsCommentsAndBlank(t *testing.T) {
	in := strings.NewReader("# comment\n\nMEM 1 CE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=0 col=0 bits=b0:0001\n")
	s, err := ReadStore(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.CountEvents(TypeCE) != 1 {
		t.Errorf("CE count %d, want 1", s.CountEvents(TypeCE))
	}
}

// Property: ByTime sorting is a total order and stable under resort.
func TestByTimeSortQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		events := make([]Event, int(n%40)+2)
		for i := range events {
			events[i] = Event{
				Time: Minutes(rng.Intn(1000)),
				Type: EventType(rng.Intn(3)),
				DIMM: DIMMID{Platform: platform.Purley, Server: rng.Intn(5), Slot: rng.Intn(3)},
			}
		}
		sort.Sort(ByTime(events))
		if !sort.IsSorted(ByTime(events)) {
			return false
		}
		for i := 1; i < len(events); i++ {
			if events[i].Time < events[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinutesString(t *testing.T) {
	m := 2*Day + 3*Hour + 4*Minute
	if m.String() != "2d03h04m" {
		t.Errorf("Minutes string = %q", m.String())
	}
}

// TestStoreStream: the fleet stream is every log's events, in
// registration order, stably sorted ByTime — events equal under ByTime
// keep that order — and the first-UE map holds exactly the DIMMs with a
// UE, at their first one.
func TestStoreStream(t *testing.T) {
	s := NewStore()
	b := DIMMID{Platform: platform.Purley, Server: 2, Slot: 0}
	a := DIMMID{Platform: platform.Purley, Server: 1, Slot: 0}
	for _, id := range []DIMMID{b, a} {
		if _, err := s.Register(id, testPart(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Two CEs of b at minute 5 differ only in address, so ByTime ties them.
	bEvents := []Event{mkCE(5, b, 1, 1), mkCE(5, b, 7, 7), {Time: 9, Type: TypeUE, DIMM: b}, {Time: 12, Type: TypeUE, DIMM: b}}
	aEvents := []Event{mkCE(3, a, 1, 1), mkCE(5, a, 1, 1)}
	if err := s.AppendEvents(b, bEvents); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents(a, aEvents); err != nil {
		t.Fatal(err)
	}
	s.SortAll()

	all, firstUE := s.Stream()
	want := []Event{aEvents[0], aEvents[1], bEvents[0], bEvents[1], bEvents[2], bEvents[3]}
	if len(all) != len(want) {
		t.Fatalf("stream holds %d events, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i].Time != want[i].Time || all[i].DIMM != want[i].DIMM || all[i].Addr != want[i].Addr {
			t.Errorf("event %d = %v %v %v, want %v %v %v", i,
				all[i].Time, all[i].DIMM, all[i].Addr, want[i].Time, want[i].DIMM, want[i].Addr)
		}
	}
	if len(firstUE) != 1 || firstUE[b] != 9 {
		t.Errorf("first UEs = %v, want only %s at minute 9", firstUE, b)
	}
}
