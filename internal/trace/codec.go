package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"memfp/internal/dram"
	"memfp/internal/platform"
)

// Binary codec primitives and the versioned event-frame format. The text
// log codec (log.go) remains the human-readable interchange form and the
// equivalence oracle; this file provides the compact wire form the
// control plane and node daemons exchange on the hot path, and the
// DIMM-implicit log form (AppendLogEventsAfter) the serving engine freezes
// one DIMM's retained events into. Both forms write an event's
// type-dependent fields through the one appendEventFields/readEventFields
// pair, so the field layout lives here and nowhere else.
//
// One frame holds one batch of events:
//
//	"MFE1"                          frame magic + version
//	uvarint nStrings                interned platform IDs and part numbers
//	nStrings × (uvarint len, bytes)
//	uvarint nEvents
//	per event:
//	  varint  Δtime                 signed — arrival order, not sorted order
//	  byte    type                  CE=0, UE=1, CE_STORM=2
//	  uvarint platform string index
//	  varint  server
//	  varint  slot
//	  uvarint part-number string index
//	  CE/UE:  varint rank, dev, bank, row, col
//	  CE:     varint bits-width, uvarint bits-mask
//
// The log form holds one DIMM's time-sorted events with no magic, string
// table or count of its own (the enclosing record carries the count):
//
//	per event:
//	  uvarint Δtime                 unsigned — the log is time-sorted
//	  byte    type
//	  CE/UE, CE fields as above
//
// Unlike the text form, CE bit signatures carry their device width
// inline, so decoding needs no part-catalog lookup. Scores elsewhere in
// the wire protocol travel as raw float64 bits (BinWriter.Float64), never
// through a decimal rendering, preserving byte-level equality.

// BinWriter appends varint-coded primitives to a byte buffer. The zero
// value is ready to use; Buf may be pre-allocated or recycled by the
// caller for pooling.
type BinWriter struct {
	Buf []byte
}

// Uvarint appends an unsigned varint.
func (w *BinWriter) Uvarint(v uint64) {
	w.Buf = binary.AppendUvarint(w.Buf, v)
}

// Varint appends a signed (zigzag) varint.
func (w *BinWriter) Varint(v int64) {
	w.Buf = binary.AppendVarint(w.Buf, v)
}

// Byte appends one raw byte.
func (w *BinWriter) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Bool appends a bool as one byte.
func (w *BinWriter) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Raw appends bytes with no length prefix.
func (w *BinWriter) Raw(p []byte) { w.Buf = append(w.Buf, p...) }

// Bytes appends a uvarint length prefix followed by the bytes.
func (w *BinWriter) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.Raw(p)
}

// String appends a uvarint length prefix followed by the string bytes.
func (w *BinWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Float64 appends the raw IEEE-754 bits, little-endian. Exact: no
// decimal rendering can perturb the value.
func (w *BinWriter) Float64(f float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(f))
}

// BinReader consumes primitives written by BinWriter. Errors latch: after
// the first malformed or truncated read every subsequent read returns a
// zero value, so decode loops can run unchecked and test Err once at the
// end.
type BinReader struct {
	data []byte
	pos  int
	err  error
}

// NewBinReader returns a reader over data.
func NewBinReader(data []byte) *BinReader { return &BinReader{data: data} }

// Err returns the first decode error, or nil.
func (r *BinReader) Err() error { return r.err }

// Failf latches a caller-detected validation error (first error wins).
func (r *BinReader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *BinReader) Remaining() int { return len(r.data) - r.pos }

// Uvarint reads an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Failf("trace: truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.Failf("trace: truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Byte reads one raw byte.
func (r *BinReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.Failf("trace: truncated byte at offset %d", r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Bool reads a bool byte.
func (r *BinReader) Bool() bool { return r.Byte() != 0 }

// Raw reads n bytes without copying; the result aliases the input.
func (r *BinReader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Failf("trace: truncated raw read of %d bytes at offset %d", n, r.pos)
		return nil
	}
	p := r.data[r.pos : r.pos+n]
	r.pos += n
	return p
}

// Bytes reads a length-prefixed byte slice (aliasing the input).
func (r *BinReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()) {
		r.Failf("trace: length prefix %d exceeds %d remaining bytes", n, r.Remaining())
		return nil
	}
	return r.Raw(int(n))
}

// String reads a length-prefixed string.
func (r *BinReader) String() string { return string(r.Bytes()) }

// Float64 reads raw IEEE-754 bits, little-endian.
func (r *BinReader) Float64() float64 {
	p := r.Raw(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// eventFrameMagic versions the binary event-batch frame.
const eventFrameMagic = "MFE1"

// StringTable interns strings for one binary frame, assigning indices in
// first-appearance order — the one string-table layout every memfp frame
// (MFE1 events, MFA1 alarms) shares. The zero value is ready to use.
type StringTable struct {
	idx  map[string]uint64
	list []string
}

// Ref returns s's frame-local index, interning it on first sight.
func (t *StringTable) Ref(s string) uint64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = map[string]uint64{}
	}
	i := uint64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// Encode writes the table as it precedes a frame's body: the string
// count, then each string length-prefixed, in index order.
func (t *StringTable) Encode(w *BinWriter) {
	w.Uvarint(uint64(len(t.list)))
	for _, s := range t.list {
		w.String(s)
	}
}

// ReadStringTable reads a table written by Encode. The declared count is
// bounded by the bytes left (a string costs at least its length byte)
// before anything is allocated; errors latch on r.
func ReadStringTable(r *BinReader) StringTable {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Failf("trace: string table declares %d strings in %d bytes", n, r.Remaining())
		return StringTable{}
	}
	t := StringTable{list: make([]string, 0, n)}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		t.list = append(t.list, r.String())
	}
	return t
}

// At reads one string index from r and resolves it; an index outside the
// table latches an error on r and yields "".
func (t *StringTable) At(r *BinReader) string {
	i := r.Uvarint()
	if r.Err() != nil {
		return ""
	}
	if i >= uint64(len(t.list)) {
		r.Failf("trace: string index %d out of range (%d interned)", i, len(t.list))
		return ""
	}
	return t.list[i]
}

// appendEventFields appends the fields of e that depend on its type: the
// address for CE and UE, the bit signature for CE. It takes and returns
// the buffer by value so the writer stays on this frame's stack: stores
// through a caller's *BinWriter would each pay the GC write barrier, and
// this runs once per event on the wire and checkpoint paths.
func appendEventFields(dst []byte, e *Event) []byte {
	w := BinWriter{Buf: dst}
	if e.Type == TypeCE || e.Type == TypeUE {
		w.Varint(int64(e.Addr.Rank))
		w.Varint(int64(e.Addr.Device))
		w.Varint(int64(e.Addr.Bank))
		w.Varint(int64(e.Addr.Row))
		w.Varint(int64(e.Addr.Column))
	}
	if e.Type == TypeCE {
		w.Varint(int64(e.Bits.Width))
		w.Uvarint(e.Bits.Mask)
	}
	return w.Buf
}

// readEventType reads and validates the type byte.
func readEventType(r *BinReader) EventType {
	t := EventType(r.Byte())
	if t != TypeCE && t != TypeUE && t != TypeStorm && r.Err() == nil {
		r.Failf("trace: unknown event type %d", t)
	}
	return t
}

// readEventFields reads what appendEventFields wrote for e.Type. Each
// field is checked before it narrows: an address that does not pack into
// a cell ID (dram.MakeAddr) and a CE bit width other than x4 or x8 are
// refused.
func readEventFields(r *BinReader, e *Event) {
	if e.Type == TypeCE || e.Type == TypeUE {
		rank, device, bank := int(r.Varint()), int(r.Varint()), int(r.Varint())
		row, column := int(r.Varint()), int(r.Varint())
		a, err := dram.MakeAddr(rank, device, bank, row, column)
		if err != nil {
			r.Failf("trace: %v", err)
		}
		e.Addr = a
	}
	if e.Type == TypeCE {
		w := r.Varint()
		if w != int64(dram.X4) && w != int64(dram.X8) {
			r.Failf("trace: CE bit width %d is neither x4 nor x8", w)
		}
		e.Bits.Width = dram.Width(w)
		e.Bits.Mask = r.Uvarint()
	}
}

// AppendLogEventsAfter encodes time-sorted events of one DIMM in the log
// form, continuing an encoding whose last event was at prev (0 for a
// whole log): appended to the encoding of a log's prefix, it gives the
// encoding of the whole log.
func AppendLogEventsAfter(dst []byte, prev Minutes, events []Event) []byte {
	w := BinWriter{Buf: dst}
	for i := range events {
		e := &events[i]
		w.Uvarint(uint64(e.Time - prev))
		prev = e.Time
		w.Byte(byte(e.Type))
		w.Buf = appendEventFields(w.Buf, e)
	}
	return w.Buf
}

// ReadLogEvents decodes n log-form events of DIMM id from r. An event is
// at least two bytes, so n is bounded by the bytes left before the slice
// is allocated: a lying count is an error, never an allocation.
func ReadLogEvents(r *BinReader, n int, id DIMMID) ([]Event, error) {
	if n < 0 || n > r.Remaining()/2 {
		return nil, fmt.Errorf("trace: log declares %d events in %d bytes", n, r.Remaining())
	}
	events := make([]Event, 0, n)
	var prev Minutes
	for i := 0; i < n && r.Err() == nil; i++ {
		e := Event{DIMM: id}
		e.Time = prev + Minutes(r.Uvarint())
		prev = e.Time
		e.Type = readEventType(r)
		readEventFields(r, &e)
		events = append(events, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// maxEventBytes bounds one event's encoding in a frame body: the type
// byte and at most twelve varints (time, platform, server, slot, part,
// five address fields, bit width and mask).
const maxEventBytes = 1 + 12*binary.MaxVarintLen64

// AppendEventFrame encodes a batch of events into dst (which may be nil
// or a recycled buffer) and returns the extended buffer. partOf resolves
// each event's DIMM to the part number recorded alongside it, exactly as
// the text log lines do. It encodes through an EventFrameEncoder of its
// own, so its body scratch is garbage on return; a caller that encodes
// frame after frame keeps an encoder instead.
func AppendEventFrame(dst []byte, events []Event, partOf func(DIMMID) string) []byte {
	var enc EventFrameEncoder
	return enc.Append(dst, events, partOf)
}

// EventFrameEncoder encodes event frames and keeps its body scratch from
// one frame to the next, so a caller that encodes frames over and over
// (the control plane: one per node per tick) allocates only the frames.
// A scratch grown past a keptFrameEvents-event frame is let go after the
// call, so one outsized batch is not held. The zero value is ready to use;
// an encoder is not safe for concurrent use.
type EventFrameEncoder struct {
	body []byte
}

// keptFrameEvents bounds the frame an EventFrameEncoder keeps scratch
// for: a served tick (controlplane's streamTick) or any share of one.
const keptFrameEvents = 1024

// Append is AppendEventFrame with enc's scratch. The body is encoded
// into that scratch with room for maxEventBytes per event, so it never
// regrows; only the frame appended to dst is returned, so a retained
// frame carries none of the scratch.
func (enc *EventFrameEncoder) Append(dst []byte, events []Event, partOf func(DIMMID) string) []byte {
	if need := binary.MaxVarintLen64 + maxEventBytes*len(events); cap(enc.body) < need {
		enc.body = make([]byte, 0, need)
	}
	var tab StringTable
	// Body first: interning assigns string indices as events are walked,
	// and the table must precede the events on the wire.
	body := BinWriter{Buf: enc.body[:0]}
	body.Uvarint(uint64(len(events)))
	var prev Minutes
	for i := range events {
		e := &events[i]
		body.Varint(int64(e.Time - prev))
		prev = e.Time
		body.Byte(byte(e.Type))
		body.Uvarint(tab.Ref(string(e.DIMM.Platform)))
		body.Varint(int64(e.DIMM.Server))
		body.Varint(int64(e.DIMM.Slot))
		body.Uvarint(tab.Ref(partOf(e.DIMM)))
		body.Buf = appendEventFields(body.Buf, e)
	}
	w := BinWriter{Buf: dst}
	w.Raw([]byte(eventFrameMagic))
	tab.Encode(&w)
	w.Raw(body.Buf)
	if len(events) > keptFrameEvents {
		enc.body = nil
	}
	return w.Buf
}

// DecodeEventFrame decodes a frame produced by AppendEventFrame. It
// returns the events and, parallel to them, the part number recorded for
// each event. Corrupt or truncated frames return an error, never panic.
func DecodeEventFrame(data []byte) ([]Event, []string, error) {
	r := NewBinReader(data)
	if magic := r.Raw(len(eventFrameMagic)); r.Err() != nil || string(magic) != eventFrameMagic {
		return nil, nil, fmt.Errorf("trace: not a %s event frame", eventFrameMagic)
	}
	table := ReadStringTable(r)
	n := r.Uvarint()
	// An event is at least six bytes (time, type, platform, server, slot,
	// part), and the slices below are sized by n before one is parsed.
	if n > uint64(r.Remaining()/6) {
		return nil, nil, fmt.Errorf("trace: event frame declares %d events in %d bytes", n, r.Remaining())
	}
	events := make([]Event, 0, n)
	parts := make([]string, 0, n)
	var prev Minutes
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var e Event
		e.Time = prev + Minutes(r.Varint())
		prev = e.Time
		e.Type = readEventType(r)
		e.DIMM.Platform = platform.ID(table.At(r))
		e.DIMM.Server = int(r.Varint())
		e.DIMM.Slot = int(r.Varint())
		part := table.At(r)
		readEventFields(r, &e)
		events = append(events, e)
		parts = append(parts, part)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return events, parts, nil
}
