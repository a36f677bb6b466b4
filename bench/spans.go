package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: driver.tick is the root (one per POST+flush), the
// controlplane spans wrap Server.Handler(), the node spans wrap each
// Node.Handler().
const (
	spanTick       = "driver.tick"
	spanCPIngest   = "controlplane.ingest"
	spanCPFlush    = "controlplane.flush"
	spanNodeIngest = "node.ingest2"
	spanNodeCkpt   = "node.checkpoint"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder began; Parent is the ID of the span
// that caused this one (-1 for a root) and Tick the driver tick it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tick   int    `json:"tick"`
	Phase  int    `json:"phase"`
	Node   int    `json:"node"` // node index, -1 above the node layer
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps the spans and boundary counts of one traced repetition
// in memory. The driver is a single closed-loop goroutine, so at any
// instant at most one root span and one controlplane span are open. Node
// handlers run on the control plane's sender goroutines, which outlive
// the request that gave them work; a node span's parent is the
// controlplane span open when it starts, or else the latest driver tick.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// The latest root span and the controlplane span currently open (-1
	// when none), read by the layers below.
	root   atomic.Int64
	openCP atomic.Int64
	tick   atomic.Int64
	phase  atomic.Int64

	// Counts taken at the same boundaries as the spans.
	nodeBytesIn, nodeBytesOut atomic.Int64
	ckptBytes                 atomic.Int64
	artifactNS, artifactBytes atomic.Int64
	joinNS                    atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.root.Store(-1)
	r.openCP.Store(-1)
	return r
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, node int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Tick: int(r.tick.Load()), Phase: int(r.phase.Load()), Node: node, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// beginTick opens the root span of driver tick i.
func (r *recorder) beginTick(i, phase int) int {
	r.tick.Store(int64(i))
	r.phase.Store(int64(phase))
	id := r.begin(spanTick, -1, -1)
	r.root.Store(int64(id))
	return id
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wrapControlPlane is the middleware on controlplane.Server.Handler().
func (r *recorder) wrapControlPlane(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/api/v1/ingest", "/api/v1/flush":
			name := spanCPIngest
			if req.URL.Path == "/api/v1/flush" {
				name = spanCPFlush
			}
			id := r.begin(name, int(r.root.Load()), -1)
			r.openCP.Store(int64(id))
			next.ServeHTTP(w, req)
			r.openCP.Store(-1)
			r.end(id)
		case "/api/v1/models/artifact":
			cw := &countingWriter{ResponseWriter: w}
			t0 := time.Now()
			next.ServeHTTP(cw, req)
			r.artifactNS.Add(time.Since(t0).Nanoseconds())
			r.artifactBytes.Add(cw.n)
		case "/api/v1/nodes/join":
			t0 := time.Now()
			next.ServeHTTP(w, req)
			r.joinNS.Add(time.Since(t0).Nanoseconds())
		default:
			next.ServeHTTP(w, req)
		}
	})
}

// wrapNode is the middleware on node i's Handler().
func (r *recorder) wrapNode(i int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var name string
		switch req.URL.Path {
		case "/ingest2":
			name = spanNodeIngest
		case "/checkpoint":
			name = spanNodeCkpt
		default:
			next.ServeHTTP(w, req)
			return
		}
		parent := int(r.openCP.Load())
		if parent < 0 {
			parent = int(r.root.Load())
		}
		cw := &countingWriter{ResponseWriter: w}
		id := r.begin(name, parent, i)
		next.ServeHTTP(cw, req)
		r.end(id)
		if name == spanNodeIngest {
			r.nodeBytesIn.Add(max(req.ContentLength, 0))
			r.nodeBytesOut.Add(cw.n)
		} else {
			r.ckptBytes.Add(cw.n)
		}
	})
}

// closed returns the spans that ended, in ID order.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its direct children cover. Children may overlap each other (two
// nodes serve one tick at once) and may outlive their parent (a
// pipelined node request ends after the POST that started it returned);
// the covered part is the union of the children's intervals clipped to
// the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}
