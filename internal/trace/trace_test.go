package trace

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"memfp/internal/dram"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

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
		Addr: dram.Addr{Rank: 0, Device: 1, Bank: 2, Row: row, Column: col}, Bits: bits}
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
	if got := len(l.UEs()); got != 1 {
		t.Errorf("UEs() = %d, want 1", got)
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

// checkCellID fails t unless an accepted CE or UE address round-trips
// through its cell ID unchanged.
func checkCellID(t *testing.T, e Event) {
	t.Helper()
	if (e.Type == TypeCE || e.Type == TypeUE) && dram.CellAddr(e.Addr.CellID()) != e.Addr {
		t.Fatalf("accepted %v address %v unpacks to %v", e.Type, e.Addr, dram.CellAddr(e.Addr.CellID()))
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
		"MEM 1 UE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=16777216 col=0", // row past its cell-ID field
		"MEM 1 UE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=0 col=-1",       // negative column
	} {
		if _, _, err := DecodeEvent(line); err == nil {
			t.Errorf("DecodeEvent(%q) should fail", line)
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
		{Time: 77, Type: TypeCE, DIMM: id, Addr: dram.Addr{Row: -1}, Bits: dram.NewErrorBits(part.Width)},
		{Time: 99999, Type: TypeUE, DIMM: id, Addr: dram.Addr{Device: 2, Bank: 1, Row: 7, Column: 8}},
		{Time: 5, Type: TypeStorm, DIMM: id},
		{Time: 8, Type: TypeUE, DIMM: id, Addr: dram.Addr{Row: 1 << 24}},
	} {
		f.Add(EncodeEvent(e, part))
	}
	f.Fuzz(func(t *testing.T, line string) {
		e, pn, err := DecodeEvent(line)
		if err != nil {
			return
		}
		checkCellID(t, e)
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
