package controlplane

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
)

// An in-process node is an ordinary node in the control plane's process.
// The control plane reaches every node through one router keyed by URL
// host: a routed in-process host (in-process, in-process-<i>) is served
// by its Node's handler in the caller's goroutine, as the node reaches
// the control plane's handler — no listener, yet a daemon's bytes, body
// caps and join. Any other host is a daemon's, over http.DefaultTransport.

// inProcessHost prefixes every in-process node's URL host.
const inProcessHost = "in-process"

// handlerTransport is an http.RoundTripper that serves each request with
// h in the caller's goroutine and hands back the recorded response.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	if r.Body == nil {
		r.Body = http.NoBody
	}
	defer r.Body.Close()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// router is the control plane's one transport to its nodes. It holds
// each in-process node by URL host; deleting one kills that node.
type router struct{ sync.Map } // host -> *Node

func (rt *router) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Host, inProcessHost) {
		return http.DefaultTransport.RoundTrip(req)
	}
	if n, ok := rt.Load(req.URL.Host); ok {
		return handlerTransport{n.(*Node).Handler()}.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	return nil, fmt.Errorf("controlplane: no in-process node at %s", req.URL.Host)
}

// joinInProcess routes host to n, points n's client at the control
// plane's handler and runs the ordinary join; a known name rejoins.
func (s *Server) joinInProcess(n *Node, host string) error {
	s.hosts.Store(host, n)
	n.client.HTTP.Transport = handlerTransport{s.mux}
	return n.JoinOnce("http://" + host)
}
