package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"memfp/internal/controlplane"
	"memfp/internal/mlops"
)

// opDeadline bounds every driver operation: the HTTP client gives up
// after it, and the watchdog turns anything still running past it into
// a failed op with a goroutine dump.
const opDeadline = 60 * time.Second

// listener is one loopback HTTP server the benchmark owns.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the listener and every connection on it — what a killed
// process looks like to its peers — and waits for Serve to return.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// nodeProc is one node daemon hosted in this process.
type nodeProc struct {
	node *controlplane.Node
	ln   *listener
}

// topology is one booted serving system: the control plane on a loopback
// listener, its node daemons on theirs, and the driver's client.
type topology struct {
	f      *fixture
	rec    *recorder // nil on an untraced repetition
	cp     *controlplane.Server
	cpLn   *listener
	nodes  []*nodeProc
	client *controlplane.Client
	tr     *http.Transport // the driver's one keep-alive connection
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i+1) }

// boot is the tail of phase 0: import the artifact into a fresh pipeline,
// start the control plane and the nodes, join them, register the DIMMs.
func boot(f *fixture, rec *recorder) (*topology, error) {
	t := &topology{f: f, rec: rec}
	pipe, err := f.newPipeline()
	if err != nil {
		return nil, err
	}
	ckpt := f.w.CheckpointEvery
	if ckpt == 0 {
		ckpt = noCheckpoint
	}
	t.cp, err = controlplane.New(controlplane.Config{
		Pipeline: pipe, ExpectNodes: f.w.Nodes, CheckpointEvery: ckpt,
	})
	if err != nil {
		return nil, fmt.Errorf("control plane: %w", err)
	}
	h := t.cp.Handler()
	if rec != nil {
		h = rec.wrapControlPlane(h)
	}
	if t.cpLn, err = listen(h); err != nil {
		t.cp.Close()
		return nil, err
	}
	t.tr = &http.Transport{MaxIdleConnsPerHost: 1}
	t.client = controlplane.NewClient(t.cpLn.url)
	t.client.HTTP = &http.Client{Transport: t.tr, Timeout: opDeadline}
	for i := 0; i < f.w.Nodes; i++ {
		np, err := t.startNode(i)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, np)
	}
	for _, d := range f.dimms {
		t.cp.RegisterDIMM(d.id, d.part)
	}
	return t, nil
}

// startNode starts node i on a fresh listener and joins it. Called again
// for the same index it is the restarted process: same name, fresh
// state, restored from the control plane's checkpoint.
func (t *topology) startNode(i int) (*nodeProc, error) {
	nd := controlplane.NewNode(nodeName(i), t.cpLn.url)
	nd.Shards = t.f.w.Shards
	h := nd.Handler()
	if t.rec != nil {
		h = t.rec.wrapNode(i, h)
	}
	ln, err := listen(h)
	if err != nil {
		return nil, err
	}
	if err := nd.JoinOnce(ln.url); err != nil {
		ln.close()
		return nil, fmt.Errorf("node %s join: %w", nd.Name, err)
	}
	return &nodeProc{node: nd, ln: ln}, nil
}

// close tears the topology down and waits for its goroutines: the
// control plane's senders stop, every listener's Serve returns, idle
// connections close.
func (t *topology) close() {
	t.cp.Close()
	for _, np := range t.nodes {
		np.ln.close()
	}
	t.cpLn.close()
	t.tr.CloseIdleConnections()
	// The control plane and the nodes talk to each other over the
	// default transport.
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections()
	}
}

// memoryStats sums the serving-memory telemetry of the workload's own
// engines: the control plane's in local mode, each node's otherwise.
func (t *topology) memoryStats() mlops.MemoryStats {
	if len(t.nodes) == 0 {
		return t.cp.MemoryStats()
	}
	var ms mlops.MemoryStats
	for _, np := range t.nodes {
		st := np.node.Stats()
		ms.ResidentBytes += st.ResidentBytes
		ms.Evictions += st.Evictions
		ms.Rehydrations += st.Rehydrations
		ms.Compactions += st.Compactions
		ms.SpilledBytes += st.SpilledBytes
	}
	return ms
}
