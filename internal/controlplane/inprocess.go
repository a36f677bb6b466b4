package controlplane

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"memfp/internal/mlops"
)

// Local mode is the distributed path with one node that shares the
// control plane's process. The two sides reach each other through
// handlerTransport — control plane → node /ingest2, node → control plane
// join and artifact pull — so a request never touches a listener, yet it
// carries the same MFT1/MFR1 bytes, meets the same body caps and gets the
// same JoinResponse as a daemon's.

// localName and localAddr name the in-process node; no listener answers
// localAddr.
const (
	localName = "local"
	localAddr = "http://in-process"
)

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

// joinLocal builds the in-process node and joins it through the ordinary
// join, its pull of the production version's artifact included. spill backs the node's evicted
// DIMM state (nil: on the heap); its dimm/ keys never meet the control
// plane's ckpt/ keys in a shared store.
func (s *Server) joinLocal(spill mlops.SpillStore) error {
	n := NewNode(localName, localAddr)
	n.Shards = s.pipe.Shards
	n.Spill = spill
	n.client.HTTP.Transport = handlerTransport{s.mux}
	s.client.Transport = handlerTransport{n.Handler()}
	if err := n.JoinOnce(localAddr); err != nil {
		return fmt.Errorf("controlplane: in-process node: %w", err)
	}
	s.local = n
	return nil
}
