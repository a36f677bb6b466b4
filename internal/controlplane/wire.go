package controlplane

import (
	"fmt"
	"sync"

	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Binary wire frames for the distributed hot path. Three frame types ride
// on the trace package's varint primitives (the same substrate as the
// event frame and the engine's frozen-DIMM records):
//
//	"MFA1" — alarm page (a binary ingest response; one per tick inside
//	         MFR1): string table (platform IDs, model names),
//	         uvarint count, per alarm varint Δtime, uvarint platform
//	         index, varint server, varint slot, raw float64 score bits,
//	         uvarint model index. Scores travel as raw IEEE-754 bits, so
//	         no rendering can perturb the byte-identical alarm invariant.
//	"MFT1" — tick batch (control plane → node): uvarint prune-below
//	         journal index, uvarint tick count, per tick uvarint journal
//	         index, uvarint pinned model version, length-prefixed MFE1
//	         event frame (the journal's bytes for that node and tick).
//	"MFR1" — tick-batch response (node → control plane): uvarint tick
//	         count, per tick uvarint journal index, length-prefixed MFA1
//	         alarm frame.
//
// Content types negotiate the codec per request on the control plane's
// external API, where BMC text and JSON remain accepted (and are the
// tests' equivalence oracle); the node fan-out speaks only MFT1/MFR1.
const (
	// ContentTypeEvents marks a request body holding one MFE1 binary
	// event frame (trace.AppendEventFrame) instead of BMC text lines.
	ContentTypeEvents = "application/x-memfp-events"
	// ContentTypeTicks marks an MFT1 tick-batch body on the node fan-out.
	ContentTypeTicks = "application/x-memfp-ticks"
	// ContentTypeAlarms marks an MFA1 alarm page; an ingest request that
	// Accepts it gets the tick's alarms back in one.
	ContentTypeAlarms = "application/x-memfp-alarms"
	// ContentTypeSnapshot marks a serialized engine snapshot (MFS4).
	ContentTypeSnapshot = "application/x-memfp-snapshot"

	// HeaderPending carries TickResponse.Pending on binary ingest
	// responses, whose body is a bare alarm frame.
	HeaderPending = "X-Memfp-Pending"
)

const (
	alarmFrameMagic = "MFA1"
	tickFrameMagic  = "MFT1"
	respFrameMagic  = "MFR1"
)

// wireBufs recycles frame-encoding buffers across sender round-trips and
// handler responses.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getWireBuf() *[]byte  { return wireBufs.Get().(*[]byte) }
func putWireBuf(b *[]byte) { *b = (*b)[:0]; wireBufs.Put(b) }

// AppendAlarmFrame encodes an alarm page into dst and returns the
// extended buffer.
func AppendAlarmFrame(dst []byte, alarms []mlops.Alarm) []byte {
	var tab trace.StringTable
	body := trace.BinWriter{Buf: make([]byte, 0, 4+16*len(alarms))}
	body.Uvarint(uint64(len(alarms)))
	var prev int64
	for _, a := range alarms {
		body.Varint(int64(a.Time) - prev)
		prev = int64(a.Time)
		body.Uvarint(tab.Ref(string(a.DIMM.Platform)))
		body.Varint(int64(a.DIMM.Server))
		body.Varint(int64(a.DIMM.Slot))
		body.Float64(a.Score)
		body.Uvarint(tab.Ref(a.Model))
	}
	w := trace.BinWriter{Buf: dst}
	w.Raw([]byte(alarmFrameMagic))
	tab.Encode(&w)
	w.Raw(body.Buf)
	return w.Buf
}

// readAlarmFrame decodes an alarm page in place on r (so MFR1 can embed
// pages); errors latch on the reader.
func readAlarmFrame(r *trace.BinReader) []mlops.Alarm {
	if magic := r.Raw(len(alarmFrameMagic)); string(magic) != alarmFrameMagic {
		r.Failf("controlplane: not an %s alarm frame", alarmFrameMagic)
		return nil
	}
	table := trace.ReadStringTable(r)
	n := r.Uvarint()
	// An alarm is at least 13 bytes (five varints and the score's eight),
	// so the count is bounded by the bytes left before the page is
	// allocated.
	if n > uint64(r.Remaining()/13) {
		r.Failf("controlplane: alarm frame declares %d alarms in %d bytes", n, r.Remaining())
		return nil
	}
	alarms := make([]mlops.Alarm, 0, n)
	var prev int64
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var a mlops.Alarm
		prev += r.Varint()
		a.Time = trace.Minutes(prev)
		a.DIMM.Platform = platform.ID(table.At(r))
		a.DIMM.Server = int(r.Varint())
		a.DIMM.Slot = int(r.Varint())
		a.Score = r.Float64()
		a.Model = table.At(r)
		alarms = append(alarms, a)
	}
	if r.Err() != nil {
		return nil
	}
	return alarms
}

// DecodeAlarmFrame decodes one standalone alarm page.
func DecodeAlarmFrame(data []byte) ([]mlops.Alarm, error) {
	r := trace.NewBinReader(data)
	alarms := readAlarmFrame(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return alarms, nil
}

// wireTick is one journal entry on the tick-batch wire: the journal
// index, the pinned model version, and the node's MFE1 event frame as the
// journal holds it.
type wireTick struct {
	tick    int
	version int
	frame   []byte
}

// appendTickFrame encodes a tick batch into dst. The event frames go on
// the wire as they are.
func appendTickFrame(dst []byte, pruneBelow int, ticks []wireTick) []byte {
	w := trace.BinWriter{Buf: dst}
	w.Raw([]byte(tickFrameMagic))
	w.Uvarint(uint64(pruneBelow))
	w.Uvarint(uint64(len(ticks)))
	for _, t := range ticks {
		w.Uvarint(uint64(t.tick))
		w.Uvarint(uint64(t.version))
		w.Bytes(t.frame)
	}
	return w.Buf
}

// decodedTick is one tick on the node side of the batch wire.
type decodedTick struct {
	tick    int
	version int
	events  []trace.Event
	parts   []string
}

// decodeTickFrame decodes a tick batch. Ticks must be strictly
// ascending — the control plane delivers in journal order.
func decodeTickFrame(data []byte) (pruneBelow int, ticks []decodedTick, err error) {
	r := trace.NewBinReader(data)
	if magic := r.Raw(len(tickFrameMagic)); r.Err() != nil || string(magic) != tickFrameMagic {
		return 0, nil, fmt.Errorf("controlplane: not an %s tick frame", tickFrameMagic)
	}
	pruneBelow = int(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		return 0, nil, fmt.Errorf("controlplane: tick frame declares %d ticks in %d bytes", n, r.Remaining())
	}
	last := -1
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var dt decodedTick
		dt.tick = int(r.Uvarint())
		dt.version = int(r.Uvarint())
		frame := r.Bytes()
		if r.Err() != nil {
			break
		}
		if dt.tick <= last {
			return 0, nil, fmt.Errorf("controlplane: tick frame indices not ascending (%d after %d)", dt.tick, last)
		}
		last = dt.tick
		dt.events, dt.parts, err = trace.DecodeEventFrame(frame)
		if err != nil {
			return 0, nil, err
		}
		ticks = append(ticks, dt)
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	return pruneBelow, ticks, nil
}

// appendRespFrame encodes a tick-batch response: per served tick, its
// journal index and alarm page.
func appendRespFrame(dst []byte, ticks []int, alarms [][]mlops.Alarm) []byte {
	w := trace.BinWriter{Buf: dst}
	w.Raw([]byte(respFrameMagic))
	w.Uvarint(uint64(len(ticks)))
	inner := getWireBuf()
	for i, tk := range ticks {
		w.Uvarint(uint64(tk))
		*inner = AppendAlarmFrame((*inner)[:0], alarms[i])
		w.Bytes(*inner)
	}
	putWireBuf(inner)
	return w.Buf
}

// decodeRespFrame decodes a tick-batch response into a journal-index →
// alarms map.
func decodeRespFrame(data []byte) (map[int][]mlops.Alarm, error) {
	r := trace.NewBinReader(data)
	if magic := r.Raw(len(respFrameMagic)); r.Err() != nil || string(magic) != respFrameMagic {
		return nil, fmt.Errorf("controlplane: not an %s response frame", respFrameMagic)
	}
	n := r.Uvarint()
	// A tick is at least 8 bytes (index, page length, an empty MFA1 page).
	if n > uint64(r.Remaining()/8) {
		return nil, fmt.Errorf("controlplane: response frame declares %d ticks in %d bytes", n, r.Remaining())
	}
	out := make(map[int][]mlops.Alarm, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		tick := int(r.Uvarint())
		page := r.Bytes()
		if r.Err() != nil {
			break
		}
		alarms, err := DecodeAlarmFrame(page)
		if err != nil {
			return nil, err
		}
		out[tick] = alarms
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
