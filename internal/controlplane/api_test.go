package controlplane

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// newLocalCP builds a local-mode control plane over an always-firing
// constant model, served through a real HTTP listener; its in-process
// node is reached without one.
func newLocalCP(t *testing.T) (*Server, *Client, *httptest.Server) {
	t.Helper()
	cp, err := New(Config{Pipeline: alwaysFirePipeline(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cp.Handler())
	t.Cleanup(ts.Close)
	return cp, NewClient(ts.URL), ts
}

func TestAPIHealthStatusAndMethods(t *testing.T) {
	_, cl, ts := newLocalCP(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}

	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "local" || st.Platform != string(platform.Purley) || st.Epoch == 0 {
		t.Errorf("status = %+v, want local-mode Purley with promoted epoch", st)
	}

	// Method patterns give automatic 405s.
	resp, err = http.Post(ts.URL+"/api/v1/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/v1/ingest = %d, want 405", resp.StatusCode)
	}
}

func TestAPIIngestAndAlarms(t *testing.T) {
	f := fleet(t)
	_, cl, _ := newLocalCP(t)

	n := min(3000, len(f.all))
	var total []AlarmJSON
	for lo := 0; lo < n; lo += 1000 {
		tr, err := ingestLines(cl, encodeLines(f, lo, min(lo+1000, n)))
		if err != nil {
			t.Fatal(err)
		}
		total = append(total, tr.Alarms...)
	}
	fr, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	total = append(total, fr.Alarms...)
	if len(total) == 0 {
		t.Fatal("always-fire model raised no alarms over the ingested stream")
	}

	ar, err := cl.Alarms(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Alarms) != len(total) || ar.Next != len(total) {
		t.Errorf("alarms since 0: %d next=%d, want %d", len(ar.Alarms), ar.Next, len(total))
	}
	// Paging from a mid-stream cursor.
	ar2, err := cl.Alarms(ar.Next - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar2.Alarms) != 1 {
		t.Errorf("alarms since next-1: %d, want 1", len(ar2.Alarms))
	}
	// Over-range cursors clamp, negative ones are rejected.
	if ar3, err := cl.Alarms(1 << 20); err != nil || len(ar3.Alarms) != 0 {
		t.Errorf("over-range cursor: %v, %d alarms", err, len(ar3.Alarms))
	}
	if _, err := cl.Alarms(-1); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Errorf("negative cursor accepted: %v", err)
	}

	// Malformed line and unknown part number are 400s naming the line.
	if _, err := ingestLines(cl, "BOGUS line\n"); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("malformed line: %v", err)
	}
	good := strings.SplitN(encodeLines(f, 0, 1), "\n", 2)[0]
	fields := strings.Fields(good)
	fields[6] = "NOT-A-PART"
	if _, err := ingestLines(cl, strings.Join(fields, " ")+"\n"); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Errorf("unknown part number: %v", err)
	}
	// So is an address outside the cell-ID fields the classifier keys by.
	wide := "# one event\nMEM 1 UE Intel_Purley 0 0 A4-2666-32 rank=0 dev=0 bank=0 row=16777216 col=0\n"
	if _, err := ingestLines(cl, wide); err == nil || !strings.Contains(err.Error(), "400") ||
		!strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "row 16777216 outside its 24-bit") {
		t.Errorf("out-of-width address: %v", err)
	}
}

func TestAPIModelLifecycle(t *testing.T) {
	cp, cl, _ := newLocalCP(t)
	pipe := cp.pipe

	models, err := cl.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Stage != string(mlops.StageProduction) || models[0].Artifact == 0 {
		t.Fatalf("models = %+v, want one production version with an artifact", models)
	}

	if _, err := cl.Promote("", 99); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("promote unknown version: %v", err)
	}
	if _, err := cl.Rollback(""); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("rollback with no archived version: %v", err)
	}

	if _, err := pipe.Registry.Register(pipe.ModelName, platform.Purley, constModel(t, -40), eval.Metrics{F1: 1}, 0.5); err != nil {
		t.Fatal(err)
	}
	before := pipe.Registry.Epoch()
	er, err := cl.Promote("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if er.Version != 2 || er.Epoch <= before {
		t.Errorf("promote v2 = %+v (epoch before %d)", er, before)
	}
	er, err = cl.Rollback("")
	if err != nil {
		t.Fatal(err)
	}
	if er.Version != 1 {
		t.Errorf("rollback restored v%d, want v1", er.Version)
	}
}

func TestAPIArtifact(t *testing.T) {
	f := fleet(t)
	cp, err := New(Config{Pipeline: mirror(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cp.Handler())
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	name := cp.pipe.ModelName

	// Production pull: bytes + metadata headers, exact hex threshold.
	art, err := cl.Artifact("", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Name != name || art.Version != 1 || string(art.Data) != string(f.artifact) {
		t.Fatalf("production artifact = %s v%d (%d bytes)", art.Name, art.Version, len(art.Data))
	}
	if art.Threshold != f.threshold {
		t.Errorf("threshold %v does not round-trip exactly (want %v)", art.Threshold, f.threshold)
	}
	if !strings.Contains(art.ETag, "-e") {
		t.Errorf("production ETag %q is not epoch-cache-busted", art.ETag)
	}

	// Conditional pull: unchanged epoch is a 304, a promotion busts it.
	again, err := cl.Artifact("", 0, art.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified {
		t.Error("If-None-Match with current ETag did not 304")
	}
	if _, err := cl.Promote(name, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.Artifact("", 0, art.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NotModified || fresh.Version != 2 || fresh.Threshold != f.threshold/2 {
		t.Errorf("post-promotion pull = v%d threshold=%v notModified=%v",
			fresh.Version, fresh.Threshold, fresh.NotModified)
	}

	// Version-pinned pull is immutable: same ETag across epochs, 304s.
	pin, err := cl.Artifact(name, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if pin.Version != 1 || strings.Contains(pin.ETag, "-e") {
		t.Errorf("pinned pull = v%d etag=%q", pin.Version, pin.ETag)
	}
	if p2, err := cl.Artifact(name, 1, pin.ETag); err != nil || !p2.NotModified {
		t.Errorf("pinned If-None-Match: %+v, %v", p2, err)
	}

	// Error paths: unknown version/name, malformed version, no envelope.
	if _, err := cl.Artifact(name, 7, ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown version: %v", err)
	}
	if _, err := cl.Artifact("nope", 1, ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown model: %v", err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/models/artifact?version=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed version = %d, want 400", resp.StatusCode)
	}
}

// TestAPIPauseResume drives a maintenance window over the API: ticks
// journal while paused (Pending counts them) and Resume drains them.
// Resuming a control plane that never paused, and closing a window no
// traffic crossed, are no-ops.
func TestAPIPauseResume(t *testing.T) {
	f := fleet(t)
	_, cl, _ := newLocalCP(t)

	for _, pauseFirst := range []bool{false, true} {
		if pauseFirst {
			if err := cl.Pause(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := cl.Resume()
		if err != nil || len(res.Alarms) != 0 || res.Pending != 0 {
			t.Fatalf("empty resume (paused first: %v) = %d alarms, %d pending, %v", pauseFirst, len(res.Alarms), res.Pending, err)
		}
		if st, err := cl.Status(); err != nil || st.Paused {
			t.Fatalf("status after resume: paused=%v, %v", st.Paused, err)
		}
	}

	if err := cl.Pause(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Paused {
		t.Fatal("status not paused after pause")
	}
	n := min(2000, len(f.all))
	tr, err := ingestLines(cl, encodeLines(f, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Alarms) != 0 || tr.Pending != 1 {
		t.Fatalf("paused ingest served: %d alarms, %d pending ticks (want 0, 1)", len(tr.Alarms), tr.Pending)
	}
	res, err := cl.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 || len(res.Alarms) == 0 {
		t.Errorf("resume drained %d alarms with %d pending, want >0 and 0", len(res.Alarms), res.Pending)
	}
}

func TestAPIDistributedGating(t *testing.T) {
	f := fleet(t)

	// Local mode's fleet is its in-process node: a daemon's join is the
	// ordinary fleet-full 409 naming -nodes, and no join can take the
	// in-process node's name. Unknown heartbeats 404.
	_, cl, _ := newLocalCP(t)
	if _, err := cl.Join(JoinRequest{Name: "n1", Addr: "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "-nodes") {
		t.Errorf("local-mode join: %v", err)
	}
	if _, err := cl.Join(JoinRequest{Name: localName, Addr: "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Errorf("join as the in-process node: %v", err)
	}
	if _, err := cl.Heartbeat(HeartbeatRequest{Name: "ghost"}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown heartbeat: %v", err)
	}

	// Distributed mode refuses ingest until the fleet is complete.
	cp, err := New(Config{Pipeline: alwaysFirePipeline(t), ExpectNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cp.Handler())
	t.Cleanup(ts.Close)
	dcl := NewClient(ts.URL)
	if _, err := ingestLines(dcl, encodeLines(f, 0, 1)); err == nil ||
		!strings.Contains(err.Error(), strconv.Itoa(http.StatusServiceUnavailable)) {
		t.Errorf("ingest before join: %v", err)
	}
	if _, err := dcl.Join(JoinRequest{Name: "", Addr: "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("nameless join: %v", err)
	}
	jr, err := dcl.Join(JoinRequest{Name: "n1", Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if jr.SlotFrom != 0 || jr.SlotTo != 64 || jr.Slots != 64 || jr.Nodes != 1 || jr.Version != 1 {
		t.Errorf("join assignment = %+v", jr)
	}
	if jr.PredictEvery != 5 || jr.Cooldown != int64(12*trace.Hour) {
		t.Errorf("join serving params = %+v, want engine defaults", jr)
	}
	if _, err := dcl.Join(JoinRequest{Name: "n2", Addr: "http://x"}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Errorf("join past fleet size: %v", err)
	}
	if hr, err := dcl.Heartbeat(HeartbeatRequest{Name: "n1"}); err != nil || hr.Version != 1 {
		t.Errorf("heartbeat = %+v, %v", hr, err)
	}
}

// TestAPINodeRefusingTicksLeavesPending: MFT1 on /ingest2 is the one node
// protocol. A node answering 404 there is an ordinary delivery failure —
// node marked dead with the error recorded, cursor rolled back, the tick
// left pending and visible in /api/v1/status — never a downgrade to some
// other wire.
func TestAPINodeRefusingTicksLeavesPending(t *testing.T) {
	f := fleet(t)
	cp, err := New(Config{Pipeline: alwaysFirePipeline(t), ExpectNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	ts := httptest.NewServer(cp.Handler())
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)

	var elsewhere atomic.Int32 // requests to any path but /ingest2
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest2" {
			elsewhere.Add(1)
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(node.Close)
	if _, err := cl.Join(JoinRequest{Name: "n1", Addr: node.URL}); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestLines(cl, encodeLines(f, 0, 200)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Flush() // returns once the delivery attempt has failed
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 1 || len(res.Alarms) != 0 {
		t.Fatalf("flush = %d alarms, %d pending; want the one tick pending", len(res.Alarms), res.Pending)
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || len(st.Nodes) != 1 || st.Nodes[0].Alive || st.Nodes[0].SentTicks != 0 {
		t.Errorf("status = pending %d, nodes %+v; want 1 pending behind a dead node with its cursor rolled back",
			st.Pending, st.Nodes)
	}
	cp.mu.Lock()
	lastErr := cp.byName["n1"].lastErr
	cp.mu.Unlock()
	if lastErr == nil || !strings.Contains(lastErr.Error(), "404") {
		t.Errorf("node lastErr = %v, want the 404 recorded", lastErr)
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("control plane tried %d request(s) on other node endpoints after the 404", n)
	}
}

// quietIngest2 is an honest node's /ingest2 with nothing to report: every
// tick of the batch answered, no alarms.
func quietIngest2(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		_, ticks, err := decodeTickFrame(body)
		if err != nil {
			t.Error(err)
		}
		idx := make([]int, len(ticks))
		for i, dt := range ticks {
			idx[i] = dt.tick
		}
		w.Write(appendRespFrame(nil, idx, make([][]mlops.Alarm, len(ticks))))
	}
}

// putFailSpill is a spill store with no room left.
type putFailSpill struct{ *mlops.MemSpill }

func (putFailSpill) Put(string, []byte) error { return errors.New("disk full") }

// TestCheckpointStoreFailureSurfaces: a checkpoint the spill store refuses
// is not a dead node and not a silent one — the node stays alive, its
// checkpoint mark stays where it was (so the journal keeps every tick a
// rejoin would need) and status says why.
func TestCheckpointStoreFailureSurfaces(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest2", quietIngest2(t))
	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("snapshot")) })
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)

	cp, err := New(Config{Pipeline: alwaysFirePipeline(t), ExpectNodes: 1, CheckpointEvery: 1,
		Spill: putFailSpill{mlops.NewMemSpill()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, _, err := cp.join(JoinRequest{Name: "n1", Addr: peer.URL}); err != nil {
		t.Fatal(err)
	}
	f := fleet(t)
	e := f.all[0]
	cp.RegisterDIMM(e.DIMM, f.parts[e.DIMM])
	if _, err := cp.IngestTick([]trace.Event{e}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Flush(); err != nil { // returns once the checkpoint attempt is over
		t.Fatal(err)
	}
	st := cp.status()
	ni := st.Nodes[0]
	if !ni.Alive || ni.SentTicks != 1 || ni.Checkpoint != 0 || ni.CheckpointBytes != 0 {
		t.Errorf("node %+v: want alive, one tick sent, checkpoint mark unmoved", ni)
	}
	if !strings.Contains(ni.LastError, "store checkpoint") || !strings.Contains(ni.LastError, "disk full") {
		t.Errorf("last error %q does not report the refused checkpoint", ni.LastError)
	}
	if st.Journal.Truncations != 0 {
		t.Errorf("journal truncated %d time(s) with no checkpoint stored", st.Journal.Truncations)
	}
}

// TestAPIBinaryIngest drives the same fleet prefix through two identical
// local control planes — one over BMC text lines, one over MFE1 binary
// frames with binary MFA1 alarm responses — and requires identical alarm
// streams from both wires.
func TestAPIBinaryIngest(t *testing.T) {
	f := fleet(t)
	n := min(2000, len(f.all))

	_, textCl, _ := newLocalCP(t)
	_, binCl, _ := newLocalCP(t)
	var ta, ba []mlops.Alarm
	collect := func(into *[]mlops.Alarm, as []AlarmJSON) {
		for _, a := range as {
			*into = append(*into, fromWire(a))
		}
	}
	for lo := 0; lo < n; lo += 500 {
		hi := min(lo+500, n)
		tr, err := ingestLines(textCl, encodeLines(f, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		frame := trace.AppendEventFrame(nil, f.all[lo:hi], func(id trace.DIMMID) string {
			return f.parts[id].PartNumber
		})
		br, err := binCl.IngestFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		collect(&ta, tr.Alarms)
		collect(&ba, br.Alarms)
	}
	for _, c := range []struct {
		cl   *Client
		into *[]mlops.Alarm
	}{{textCl, &ta}, {binCl, &ba}} {
		res, err := c.cl.Flush()
		if err != nil || res.Pending != 0 {
			t.Fatalf("flush: %d pending, %v", res.Pending, err)
		}
		collect(c.into, res.Alarms)
	}
	if len(ta) == 0 {
		t.Fatal("always-fire model raised no alarms")
	}
	if got, want := renderAlarms(ba), renderAlarms(ta); got != want {
		t.Fatalf("binary wire alarms diverge from text wire:\n%s", firstDiff(got, want))
	}

	// Binary alarm paging agrees with the JSON page.
	req, err := http.NewRequest(http.MethodGet, binCl.base+"/api/v1/alarms?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ContentTypeAlarms)
	resp, err := binCl.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary alarms page: %d, %v", resp.StatusCode, err)
	}
	if resp.Header.Get("Content-Type") != ContentTypeAlarms {
		t.Errorf("binary alarms content type %q", resp.Header.Get("Content-Type"))
	}
	binPage, err := DecodeAlarmFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	jsonPage, err := binCl.Alarms(0)
	if err != nil {
		t.Fatal(err)
	}
	if next, _ := strconv.Atoi(resp.Header.Get(HeaderNext)); next != jsonPage.Next {
		t.Errorf("binary page next cursor %d, JSON %d", next, jsonPage.Next)
	}
	var jp []mlops.Alarm
	for _, a := range jsonPage.Alarms {
		jp = append(jp, fromWire(a))
	}
	if got, want := renderAlarms(binPage), renderAlarms(jp); got != want {
		t.Errorf("binary alarm page diverges from JSON page:\n%s", firstDiff(got, want))
	}
}

// fill is an endless stream of one byte, for bodies too large to build.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestAPIOversizeBodyRefused: each endpoint that reads an event-carrying
// body into memory refuses one a byte past its cap with 413, and nothing
// of it reaches the engine behind the endpoint.
func TestAPIOversizeBodyRefused(t *testing.T) {
	_, cl, ts := newLocalCP(t)

	cp, err := New(Config{Pipeline: alwaysFirePipeline(t), ExpectNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	cpSrv := httptest.NewServer(cp.Handler())
	t.Cleanup(cpSrv.Close)
	node := NewNode("n1", cpSrv.URL)
	nodeSrv := httptest.NewServer(node.Handler())
	t.Cleanup(nodeSrv.Close)
	if err := node.JoinOnce(nodeSrv.URL); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, url, contentType string
		limit                  int64
	}{
		{"ingest text", ts.URL + "/api/v1/ingest", "text/plain", maxTickBytes},
		{"ingest MFE1", ts.URL + "/api/v1/ingest", ContentTypeEvents, maxTickBytes},
		{"node ingest2", nodeSrv.URL + "/ingest2", ContentTypeTicks, maxFrameBytes},
	} {
		// Blank lines: the text codec would skip every byte and accept.
		resp, err := http.Post(tc.url, tc.contentType, io.LimitReader(fill('\n'), tc.limit+1))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d bytes answered %d, want 413", tc.name, tc.limit+1, resp.StatusCode)
		}
	}

	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 0 || st.Events != 0 {
		t.Errorf("refused bodies reached the control plane's engine: %d ticks, %d events", st.Ticks, st.Events)
	}
	if ns := node.Stats(); ns.Events != 0 || node.lastTick != -1 {
		t.Errorf("refused body reached the node's engine: %d events, last tick %d", ns.Events, node.lastTick)
	}
}

// hostilePeers are the three ways a peer's response body can lie about
// its size. Each handler reports how many body bytes it got to write.
var hostilePeers = []struct {
	name  string
	serve func(w http.ResponseWriter, limit int64) (wrote int64)
	// chunked peers must actually send limit+1 bytes; they are only
	// pointed at endpoints capped at maxFrameBytes.
	chunked bool
}{
	{name: "declares 1<<40 and sends nothing", serve: func(w http.ResponseWriter, _ int64) int64 {
		w.Header().Set("Content-Length", strconv.Itoa(1<<40))
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		return 0
	}},
	{name: "streams past the cap", chunked: true, serve: func(w http.ResponseWriter, limit int64) int64 {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // no length declared: chunked
		n, _ := io.Copy(w, io.LimitReader(fill(0), 2*limit))
		return n
	}},
	{name: "declares 1 MB and closes after 1 KB", serve: func(w http.ResponseWriter, _ int64) int64 {
		w.Header().Set("Content-Length", strconv.Itoa(1<<20))
		w.WriteHeader(http.StatusOK)
		n, _ := w.Write(make([]byte, 1<<10))
		return int64(n)
	}},
}

// allocatedBy reports the heap bytes f allocated (every goroutine's, so
// it is an upper bound on f's own).
func allocatedBy(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestPeerResponseBounded: no reader of a peer's response buffers what
// the peer chooses to send. Against each hostile peer, Client.roundTrip
// (a JSON endpoint held to maxFrameBytes, the checkpoint pull held to
// maxBlobBytes) and Server.postNode (/ingest2 and /checkpoint, same two
// caps) return an error instead of a body, a declared length is never
// allocated beyond what arrives plus the cap's worth, a chunked stream is
// abandoned at the cap, and the control plane marks the node dead and
// keeps the reason where /api/v1/status shows it.
func TestPeerResponseBounded(t *testing.T) {
	const slack = 4 << 20 // HTTP plumbing, test scaffolding, other goroutines

	for _, hp := range hostilePeers {
		t.Run("client/"+hp.name, func(t *testing.T) {
			var wrote atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				wrote.Store(hp.serve(w, maxFrameBytes))
			}))
			cl := NewClient(peer.URL)
			calls := map[string]func() error{
				"Status": func() error { _, err := cl.Status(); return err },
			}
			if !hp.chunked {
				calls["NodeCheckpoint"] = func() error { _, err := cl.NodeCheckpoint("n1"); return err }
			}
			for name, call := range calls {
				var err error
				alloc := allocatedBy(func() { err = call() })
				if err == nil {
					t.Fatalf("%s accepted the response", name)
				}
				t.Logf("%s: %v (allocated %d bytes)", name, err, alloc)
				checkBounded(t, name, hp.chunked, alloc, slack)
			}
			peer.Close() // waits for the handler: its count is final
			checkAbandoned(t, hp.chunked, wrote.Load())
		})

		for _, endpoint := range []string{"/ingest2", "/checkpoint"} {
			if hp.chunked && endpoint == "/checkpoint" {
				continue // would have to stream maxBlobBytes; same reader, same branch
			}
			t.Run("postNode"+endpoint+"/"+hp.name, func(t *testing.T) {
				var wrote atomic.Int64
				mux := http.NewServeMux()
				hostile := func(w http.ResponseWriter, r *http.Request) { wrote.Store(hp.serve(w, maxFrameBytes)) }
				mux.HandleFunc("POST /checkpoint", hostile)
				if endpoint == "/ingest2" {
					mux.HandleFunc("POST /ingest2", hostile)
				} else {
					// An honest /ingest2 with nothing to report, so the first
					// emitted tick schedules the checkpoint.
					mux.HandleFunc("POST /ingest2", quietIngest2(t))
				}
				peer := httptest.NewServer(mux)

				cp, err := New(Config{Pipeline: alwaysFirePipeline(t), ExpectNodes: 1, CheckpointEvery: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer cp.Close()
				if _, _, err := cp.join(JoinRequest{Name: "n1", Addr: peer.URL}); err != nil {
					t.Fatal(err)
				}
				f := fleet(t)
				e := f.all[0]
				cp.RegisterDIMM(e.DIMM, f.parts[e.DIMM])
				alloc := allocatedBy(func() {
					if _, err := cp.IngestTick([]trace.Event{e}); err != nil {
						t.Fatal(err)
					}
					if _, err := cp.Flush(); err != nil { // returns once the node is dead
						t.Fatal(err)
					}
				})
				ni := cp.status().Nodes[0]
				if ni.Alive || ni.LastError == "" {
					t.Fatalf("node alive=%v, last error %q: want dead with the reason kept", ni.Alive, ni.LastError)
				}
				if endpoint == "/checkpoint" && !strings.Contains(ni.LastError, "checkpoint") {
					t.Errorf("last error %q does not name the checkpoint", ni.LastError)
				}
				t.Logf("%s (allocated %d bytes)", ni.LastError, alloc)
				checkBounded(t, "postNode", hp.chunked, alloc, slack)
				peer.Close() // waits for the handler: its count is final
				checkAbandoned(t, hp.chunked, wrote.Load())
			})
		}
	}
}

// checkBounded holds one hostile exchange to its memory bound: a reader
// of a declared length allocates what was declared only when that is
// within the cap (1 MB here) and nothing for 1<<40; a reader of a chunked
// stream allocates a small multiple of the cap (io.ReadAll grows its
// buffer geometrically on the way to cap+1 bytes), not of what the peer
// had to offer.
func checkBounded(t *testing.T, who string, chunked bool, alloc, slack int64) {
	t.Helper()
	limit := int64(1<<20) + slack
	if chunked {
		limit = 8 * maxFrameBytes
	}
	if alloc > limit {
		t.Errorf("%s allocated %d bytes, want at most %d", who, alloc, limit)
	}
}

// checkAbandoned: a chunked peer offering twice the cap got past the cap
// — the reader took cap+1 bytes to know — and nowhere near the end
// before the reader hung up (socket buffers hold a few MB in flight).
func checkAbandoned(t *testing.T, chunked bool, wrote int64) {
	t.Helper()
	if chunked && (wrote <= maxFrameBytes || wrote >= 2*maxFrameBytes) {
		t.Errorf("peer wrote %d of %d bytes against a %d-byte cap", wrote, int64(2*maxFrameBytes), int64(maxFrameBytes))
	}
}
