package controlplane

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"memfp/internal/dram"
	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// randAlarms builds a page of random alarms, including adversarial
// scores whose decimal renderings are lossy — the raw-bits codec must
// not care.
func randAlarms(rng *rand.Rand, n int) []mlops.Alarm {
	platforms := platform.All()
	models := []string{"purley-rf", "purley-rf-v2", "whitley-gbdt"}
	out := make([]mlops.Alarm, 0, n)
	tm := int64(rng.Intn(1000))
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(2000) - 200) // deltas may be negative
		out = append(out, mlops.Alarm{
			Time: trace.Minutes(tm),
			DIMM: trace.DIMMID{
				Platform: platforms[rng.Intn(len(platforms))],
				Server:   rng.Intn(100000),
				Slot:     rng.Intn(24),
			},
			Score: rng.Float64(),
			Model: models[rng.Intn(len(models))],
		})
	}
	return out
}

// TestAlarmFrameMatchesJSON is the alarm wire's equivalence oracle: over
// random pages, the binary frame must decode to exactly what the JSON
// codec round-trips — same alarms, same float64 bits.
func TestAlarmFrameMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		alarms := randAlarms(rng, rng.Intn(60))

		frame := AppendAlarmFrame(nil, alarms)
		got, err := DecodeAlarmFrame(frame)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(alarms) {
			t.Fatalf("trial %d: %d alarms, want %d", trial, len(got), len(alarms))
		}

		blob, err := json.Marshal(toWireSlice(alarms))
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON []AlarmJSON
		if err := json.Unmarshal(blob, &viaJSON); err != nil {
			t.Fatal(err)
		}
		for i := range alarms {
			if got[i] != fromWire(viaJSON[i]) {
				t.Fatalf("trial %d alarm %d: binary %+v != JSON %+v", trial, i, got[i], fromWire(viaJSON[i]))
			}
		}

		// Determinism: equal pages encode to equal bytes.
		if !bytes.Equal(frame, AppendAlarmFrame(nil, alarms)) {
			t.Fatalf("trial %d: alarm frame encoding not deterministic", trial)
		}
	}
}

// TestAlarmFrameRejectsCorruption truncates and mutates valid frames:
// decoding must fail cleanly or parse — never panic.
func TestAlarmFrameRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frame := AppendAlarmFrame(nil, randAlarms(rng, 40))
	for cut := 0; cut < len(frame); cut += 3 {
		DecodeAlarmFrame(frame[:cut]) // must not panic
	}
	for i := 0; i < len(frame); i += 2 {
		mutated := bytes.Clone(frame)
		mutated[i] ^= 0xFF
		DecodeAlarmFrame(mutated) // must not panic
	}
	if _, err := DecodeAlarmFrame(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := DecodeAlarmFrame([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestTickAndRespFrameRoundTrip exercises the fan-out frames end to end:
// a tick batch encodes, decodes to the same events in the same order,
// and the matching response frame maps every tick back to its alarms.
func TestTickAndRespFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := fleet(t)
	events := f.all[:200]
	partOf := func(id trace.DIMMID) string { return f.parts[id].PartNumber }

	spans := [][]trace.Event{events[:80], events[80:150], events[150:]}
	ticks := []wireTick{
		{tick: 7, version: 1, frame: trace.AppendEventFrame(nil, spans[0], partOf)},
		{tick: 9, version: 1, frame: trace.AppendEventFrame(nil, spans[1], partOf)},
		{tick: 12, version: 2, frame: trace.AppendEventFrame(nil, spans[2], partOf)},
	}
	frame := appendTickFrame(nil, 5, ticks)
	prune, got, err := decodeTickFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if prune != 5 || len(got) != len(ticks) {
		t.Fatalf("prune=%d nTicks=%d, want 5 and %d", prune, len(got), len(ticks))
	}
	for i, dt := range got {
		if dt.tick != ticks[i].tick || dt.version != ticks[i].version {
			t.Fatalf("tick %d header %d/v%d, want %d/v%d", i, dt.tick, dt.version, ticks[i].tick, ticks[i].version)
		}
		if len(dt.events) != len(spans[i]) {
			t.Fatalf("tick %d: %d events, want %d", i, len(dt.events), len(spans[i]))
		}
		for j := range dt.events {
			if dt.events[j] != spans[i][j] {
				t.Fatalf("tick %d event %d diverged", i, j)
			}
			if dt.parts[j] != partOf(dt.events[j].DIMM) {
				t.Fatalf("tick %d event %d part %q, want %q", i, j, dt.parts[j], partOf(dt.events[j].DIMM))
			}
		}
	}

	// Non-ascending tick indices are a protocol violation.
	empty := trace.AppendEventFrame(nil, nil, partOf)
	if _, _, err := decodeTickFrame(appendTickFrame(nil, 0, []wireTick{
		{tick: 9, version: 1, frame: empty}, {tick: 7, version: 1, frame: empty},
	})); err == nil {
		t.Fatal("descending tick indices accepted")
	}

	idx := []int{7, 9, 12}
	pages := [][]mlops.Alarm{randAlarms(rng, 5), nil, randAlarms(rng, 3)}
	resp := appendRespFrame(nil, idx, pages)
	byTick, err := decodeRespFrame(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(byTick) != 3 {
		t.Fatalf("%d response ticks, want 3", len(byTick))
	}
	for i, tk := range idx {
		as := byTick[tk]
		if len(as) != len(pages[i]) {
			t.Fatalf("tick %d: %d alarms, want %d", tk, len(as), len(pages[i]))
		}
		for j := range as {
			if as[j] != pages[i][j] {
				t.Fatalf("tick %d alarm %d diverged", tk, j)
			}
		}
	}
}

// The golden frames: what TestWireFramesGoldenBytes pins and what the two
// frame fuzzers below start from.
const (
	goldenMFA1 = "4d464131040c496e74656c5f5075726c6579046d2d7631044b393230046d2d763202d00f0018069a9999999999b93f0100020e00000000000000f03f03"
	goldenMFT1 = "4d46543105010702374d464531020c496e74656c5f5075726c65790a41342d323636362d333202d00f0000180601020a12e0c508820808a18802020200180601"
	goldenMFR1 = "4d46523101073d4d464131040c496e74656c5f5075726c6579046d2d7631044b393230046d2d763202d00f0018069a9999999999b93f0100020e00000000000000f03f03"
)

// TestWireFramesGoldenBytes pins the MFA1, MFT1 and MFR1 layouts on one
// fixed frame each: refactors of the codecs must not move a byte.
func TestWireFramesGoldenBytes(t *testing.T) {
	a := trace.DIMMID{Platform: platform.Purley, Server: 12, Slot: 3}
	b := trace.DIMMID{Platform: platform.K920, Server: 7, Slot: 0}
	alarms := []mlops.Alarm{
		{Time: 1000, DIMM: a, Score: 0.1, Model: "m-v1"},
		{Time: 1000, DIMM: b, Score: 1, Model: "m-v2"},
	}
	events := []trace.Event{
		{Time: 1000, Type: trace.TypeCE, DIMM: a, Addr: dram.Addr{Rank: 1, Device: 5, Bank: 9, Row: 70000, Column: 513},
			Bits: dram.ErrorBits{Width: dram.X4, Mask: 0x8421}},
		{Time: 1001, Type: trace.TypeStorm, DIMM: a},
	}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"MFA1", goldenMFA1, AppendAlarmFrame(nil, alarms)},
		{"MFT1", goldenMFT1,
			appendTickFrame(nil, 5, []wireTick{{tick: 7, version: 2,
				frame: trace.AppendEventFrame(nil, events, func(trace.DIMMID) string { return "A4-2666-32" })}})},
		{"MFR1", goldenMFR1, appendRespFrame(nil, []int{7}, [][]mlops.Alarm{alarms})},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s bytes moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// seedFrames adds a fuzzer's starting corpus: the golden frame, the same
// frame cut short, its bare magic and nothing at all.
func seedFrames(f *testing.F, golden string) {
	frame, err := hex.DecodeString(golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add(frame[:4])
	f.Add([]byte{})
}

// FuzzDecodeTickFrame feeds arbitrary bytes to the MFT1 decoder a node
// runs on every /ingest2 body. A frame either is refused or round-trips:
// what was decoded re-encodes to a frame that decodes again and
// re-encodes to the same bytes, and no more events come out than the
// bytes could have held.
func FuzzDecodeTickFrame(f *testing.F) {
	seedFrames(f, goldenMFT1)
	// A column one past its cell-ID field and a negative rank, written over
	// the five zero address varints that end a one-UE frame: refused.
	ue := trace.Event{Time: 9, Type: trace.TypeUE, DIMM: trace.DIMMID{Platform: platform.Purley}}
	valid := trace.AppendEventFrame(nil, []trace.Event{ue}, func(trace.DIMMID) string { return "A4-2666-32" })
	for _, addr := range [][5]int64{{0, 0, 0, 0, 1 << 16}, {-1, 0, 0, 0, 0}} {
		w := trace.BinWriter{Buf: bytes.Clone(valid[:len(valid)-5])}
		for _, v := range addr {
			w.Varint(v)
		}
		f.Add(appendTickFrame(nil, 0, []wireTick{{tick: 1, frame: w.Buf}}))
	}
	// An x4 CE whose mask has a bit past the 32 of its burst: refused.
	ce := trace.Event{Time: 9, Type: trace.TypeCE, DIMM: ue.DIMM, Bits: dram.ErrorBits{Width: dram.X4, Mask: 1 << 40}}
	wide := trace.AppendEventFrame(nil, []trace.Event{ce}, func(trace.DIMMID) string { return "A4-2666-32" })
	f.Add(appendTickFrame(nil, 0, []wireTick{{tick: 1, frame: wide}}))
	reencode := func(prune int, ticks []decodedTick) []byte {
		wire := make([]wireTick, len(ticks))
		for i, dt := range ticks {
			// The encoder asks for one part number per event, in order; hand
			// back the recorded ones (a fuzzed frame may give one DIMM two).
			k := 0
			frame := trace.AppendEventFrame(nil, dt.events, func(trace.DIMMID) string { k++; return dt.parts[k-1] })
			wire[i] = wireTick{tick: dt.tick, version: dt.version, frame: frame}
		}
		return appendTickFrame(nil, prune, wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prune, ticks, err := decodeTickFrame(data)
		if err != nil {
			return
		}
		events := 0
		for _, dt := range ticks {
			events += len(dt.events)
			for _, e := range dt.events {
				if (e.Type == trace.TypeCE || e.Type == trace.TypeUE) && dram.CellAddr(e.Addr.CellID()) != e.Addr {
					t.Fatalf("accepted %v address %v unpacks to %v", e.Type, e.Addr, dram.CellAddr(e.Addr.CellID()))
				}
				if e.Type == trace.TypeCE && e.Bits.Width != dram.X4 && e.Bits.Width != dram.X8 {
					t.Fatalf("accepted CE with bit width %d", e.Bits.Width)
				}
				if e.Type == trace.TypeCE {
					// The bits render as a beat × DQ grid that parses back.
					s := e.Bits.String()
					if back, err := dram.ParseErrorBits(e.Bits.Width, s); s == "" || err != nil || back != e.Bits {
						t.Fatalf("accepted CE bits %#x (%v) render as %q", e.Bits.Mask, e.Bits.Width, s)
					}
				}
			}
		}
		if events > len(data) {
			t.Fatalf("%d events decoded from %d bytes", events, len(data))
		}
		once := reencode(prune, ticks)
		prune2, ticks2, err := decodeTickFrame(once)
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if twice := reencode(prune2, ticks2); !bytes.Equal(once, twice) {
			t.Fatalf("tick frame does not round-trip:\n once %x\ntwice %x", once, twice)
		}
	})
}

// FuzzDecodeRespFrame is the same contract for the MFR1 decoder the
// control plane runs on every node response (and through it the MFA1
// alarm pages an MFR1 frame embeds).
func FuzzDecodeRespFrame(f *testing.F) {
	seedFrames(f, goldenMFR1)
	reencode := func(byTick map[int][]mlops.Alarm) []byte {
		idx := make([]int, 0, len(byTick))
		for tk := range byTick {
			idx = append(idx, tk)
		}
		sort.Ints(idx)
		pages := make([][]mlops.Alarm, len(idx))
		for i, tk := range idx {
			pages[i] = byTick[tk]
		}
		return appendRespFrame(nil, idx, pages)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		byTick, err := decodeRespFrame(data)
		if err != nil {
			return
		}
		alarms := 0
		for _, as := range byTick {
			alarms += len(as)
		}
		if len(byTick) > len(data) || alarms > len(data) {
			t.Fatalf("%d ticks and %d alarms decoded from %d bytes", len(byTick), alarms, len(data))
		}
		once := reencode(byTick)
		byTick2, err := decodeRespFrame(once)
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if twice := reencode(byTick2); !bytes.Equal(once, twice) {
			t.Fatalf("response frame does not round-trip:\n once %x\ntwice %x", once, twice)
		}
	})
}
