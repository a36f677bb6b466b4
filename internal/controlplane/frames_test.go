package controlplane

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// The journal keeps each node's share of a tick as the MFE1 frame the
// node is sent. These tests pin what that promises: a replay ships the
// first delivery's bytes, a tick keeps the parts registered when it was
// journaled, and a delivery does no per-event work.

// ingest2Recorder passes every request on to next, first recording the
// body of each /ingest2 request under the node host it was sent to.
type ingest2Recorder struct {
	next   http.RoundTripper
	mu     sync.Mutex
	bodies map[string][][]byte // host -> MFT1 bodies in send order
}

func recordIngest2(cp *Server) *ingest2Recorder {
	rec := &ingest2Recorder{bodies: map[string][][]byte{}}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	rec.next = cp.client.Transport
	cp.client.Transport = rec
	return rec
}

func (rec *ingest2Recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/ingest2" {
		return rec.next.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	rec.bodies[req.URL.Host] = append(rec.bodies[req.URL.Host], body)
	rec.mu.Unlock()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	return rec.next.RoundTrip(out)
}

// framesOf splits an MFT1 body into the event frames it carries, by
// journal index: the bytes as sent, not their decoding.
func framesOf(t *testing.T, body []byte) map[int][]byte {
	t.Helper()
	r := trace.NewBinReader(body)
	if string(r.Raw(len(tickFrameMagic))) != tickFrameMagic {
		t.Fatalf("not an %s body", tickFrameMagic)
	}
	r.Uvarint() // prune mark
	out := map[int][]byte{}
	for n := r.Uvarint(); n > 0 && r.Err() == nil; n-- {
		tick := int(r.Uvarint())
		r.Uvarint() // pinned version
		out[tick] = r.Bytes()
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRejoinReplaysJournaledFrames: a node killed mid-stream and rejoined
// with no checkpoint replays the whole journal, and every tick it is sent
// again carries the event frame of that tick's first delivery, byte for
// byte.
func TestRejoinReplaysJournaledFrames(t *testing.T) {
	f := fleet(t)
	stream := f.all[:min(12*streamTick, len(f.all))]
	fl := bootFleet(t, Config{Pipeline: fastMirror(t), ExpectNodes: 2, CheckpointEvery: 1 << 30}, "n1", "n2")
	cp := fl.cp
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	rec := recordIngest2(cp)
	half := len(stream) / 2
	if _, err := cp.ServeStream(context.Background(), stream[:half]); err != nil {
		t.Fatal(err)
	}
	fl.kill("n2")
	if _, err := cp.ServeStream(context.Background(), stream[half:]); err != nil {
		t.Fatal(err)
	}
	if cp.Flush().Pending == 0 {
		t.Fatal("killing n2 left no ticks pending; the rejoin replays nothing")
	}
	fl.join(t, "n2")
	if res := cp.Flush(); res.Pending != 0 {
		t.Fatalf("%d ticks pending after the rejoin", res.Pending)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	first := map[int][]byte{}
	replayed := 0
	for _, body := range rec.bodies[fl.hosts["n2"]] {
		for tick, frame := range framesOf(t, body) {
			sent, again := first[tick]
			if !again {
				first[tick] = frame
				continue
			}
			replayed++
			if !bytes.Equal(frame, sent) {
				t.Fatalf("tick %d replayed as a %d-byte frame, first sent as %d bytes", tick, len(frame), len(sent))
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no tick reached n2 twice; the test proves nothing")
	}
}

// TestReRegisteredDIMMKeepsJournaledPart: a tick journaled during a
// maintenance window is delivered after its DIMM was registered again with
// another part, and the node still gets the part registered when the tick
// was journaled.
func TestReRegisteredDIMMKeepsJournaledPart(t *testing.T) {
	f := fleet(t)
	fl := bootFleet(t, Config{Pipeline: fastMirror(t), ExpectNodes: 1}, "n1")
	cp := fl.cp
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	rec := recordIngest2(cp)
	tick := f.all[:streamTick]
	id := tick[0].DIMM
	was := f.parts[id].PartNumber
	var other platform.DIMMPart
	for _, p := range platform.Catalog() {
		if p.PartNumber != was {
			other = p
			break
		}
	}

	cp.Pause()
	if _, err := cp.ServeStream(context.Background(), tick); err != nil {
		t.Fatal(err)
	}
	cp.RegisterDIMM(id, other)
	if res := cp.Resume(); res.Pending != 0 {
		t.Fatalf("%d ticks pending after Resume", res.Pending)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	seen := 0
	for _, body := range rec.bodies[fl.hosts["n1"]] {
		_, ticks, err := decodeTickFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range ticks {
			for i, e := range dt.events {
				if e.DIMM != id {
					continue
				}
				seen++
				if dt.parts[i] != was {
					t.Fatalf("tick %d sent %s with part %s, registered as %s when journaled", dt.tick, id, dt.parts[i], was)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatalf("no event of %s reached the node", id)
	}
}

// mfr1Stub answers every /ingest2 batch as a node that raised no alarm
// would, without decoding the events: the control plane's send path is
// all that runs. Its buffers are reused, so a round costs it no
// allocations that depend on the batch.
type mfr1Stub struct {
	t    *testing.T
	body bytes.Buffer
	idx  []int
	resp []byte
}

func (st *mfr1Stub) RoundTrip(req *http.Request) (*http.Response, error) {
	st.body.Reset()
	_, err := st.body.ReadFrom(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	st.idx = st.idx[:0]
	for tick := range framesOf(st.t, st.body.Bytes()) {
		st.idx = append(st.idx, tick)
	}
	st.resp = appendRespFrame(st.resp[:0], st.idx, make([][]mlops.Alarm, len(st.idx)))
	return &http.Response{
		StatusCode:    http.StatusOK,
		Body:          io.NopCloser(bytes.NewReader(st.resp)),
		ContentLength: int64(len(st.resp)),
		Request:       req,
	}, nil
}

// TestDeliveryAllocsFlatInTickSize guards the send path: redelivering one
// journaled tick allocates no more for a tick of streamTick events than for
// one of 16, so no per-event work (part lookups, a re-encode) runs under
// the server lock on the way to a node.
func TestDeliveryAllocsFlatInTickSize(t *testing.T) {
	f := fleet(t)
	cp := bootFleet(t, Config{Pipeline: fastMirror(t), ExpectNodes: 1}, "n1").cp
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	cp.mu.Lock()
	cp.client.Transport = &mfr1Stub{t: t}
	cp.mu.Unlock()
	cp.Close() // the sender exits: the test delivers by hand

	allocs := map[int]float64{}
	lo := 0
	for _, size := range []int{16, streamTick} {
		if _, err := cp.ingestTick(f.all[lo : lo+size]); err != nil {
			t.Fatal(err)
		}
		lo += size
		cp.mu.Lock()
		n := cp.nodes[0]
		from := n.sent
		allocs[size] = testing.AllocsPerRun(20, func() {
			n.sent = from
			cp.deliverBatchLocked(n)
		})
		ok := n.alive && n.sent == cp.journal.end()
		cp.mu.Unlock()
		if !ok {
			t.Fatalf("the %d-event tick was not delivered", size)
		}
	}
	t.Logf("allocations per delivery round: %v", allocs)
	// One allocation of slack: the race detector's sync.Pool drops pooled
	// wire buffers at random, and a fresh one grows once to the bigger batch.
	if allocs[streamTick] > allocs[16]+1 {
		t.Errorf("a round allocates %v times for a %d-event tick, %v for a 16-event one",
			allocs[streamTick], streamTick, allocs[16])
	}
}
