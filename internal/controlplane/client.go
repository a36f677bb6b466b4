package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client speaks the control-plane HTTP API. Node daemons use it to join,
// heartbeat and pull artifacts; memfp ctl uses it for operator commands.
type Client struct {
	base string
	HTTP *http.Client
}

// NewClient wraps a control-plane base URL (e.g. http://127.0.0.1:9090).
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// roundTrip sends req and returns the response (for its status and
// headers) and its whole body, at most limit bytes of it (readBody). Any
// status but 200 is an error carrying the server's errorJSON message, or
// failing that the body's text.
func (c *Client) roundTrip(req *http.Request, limit int64) (*http.Response, []byte, error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp, limit)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp, body, nil
	}
	var e errorJSON
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = string(bytes.TrimSpace(body))
	}
	if e.Error == "" {
		return nil, nil, fmt.Errorf("%s", resp.Status)
	}
	return nil, nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
}

// do is roundTrip for the JSON endpoints: a 200 body decodes into out.
func (c *Client) do(req *http.Request, out any) error {
	_, body, err := c.roundTrip(req, maxFrameBytes)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func (c *Client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) post(path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.do(req, out)
}

// Status fetches the control-plane summary.
func (c *Client) Status() (StatusResponse, error) {
	var st StatusResponse
	err := c.get("/api/v1/status", &st)
	return st, err
}

// IngestFrame posts one tick as a pre-encoded MFE1 binary event frame
// and requests the alarms back as a binary MFA1 page — the fast path for
// high-volume feeders.
func (c *Client) IngestFrame(frame []byte) (TickResponse, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/ingest", bytes.NewReader(frame))
	if err != nil {
		return TickResponse{}, err
	}
	req.Header.Set("Content-Type", ContentTypeEvents)
	req.Header.Set("Accept", ContentTypeAlarms)
	resp, body, err := c.roundTrip(req, maxFrameBytes)
	if err != nil {
		return TickResponse{}, err
	}
	alarms, err := DecodeAlarmFrame(body)
	if err != nil {
		return TickResponse{}, err
	}
	var tr TickResponse
	tr.Alarms = toWireSlice(alarms)
	tr.Pending, _ = strconv.Atoi(resp.Header.Get(HeaderPending))
	return tr, nil
}

// NodeCheckpoint pulls a node's stored engine snapshot for a rejoin
// restore.
func (c *Client) NodeCheckpoint(name string) ([]byte, error) {
	q := url.Values{"name": {name}}
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/nodes/checkpoint?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	_, body, err := c.roundTrip(req, maxBlobBytes)
	return body, err
}

// Flush re-drives delivery of pending work.
func (c *Client) Flush() (TickResponse, error) {
	var tr TickResponse
	err := c.post("/api/v1/flush", nil, &tr)
	return tr, err
}

// Alarms pages the emitted alarm stream from a cursor.
func (c *Client) Alarms(since int) (AlarmsResponse, error) {
	var ar AlarmsResponse
	err := c.get("/api/v1/alarms?since="+strconv.Itoa(since), &ar)
	return ar, err
}

// Models lists every registry version.
func (c *Client) Models() ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	err := c.get("/api/v1/models", &out)
	return out.Models, err
}

// Promote moves a staged version to production.
func (c *Client) Promote(name string, version int) (EpochResponse, error) {
	var er EpochResponse
	err := c.post("/api/v1/models/promote", PromoteRequest{Name: name, Version: version}, &er)
	return er, err
}

// Rollback restores the previously archived production version.
func (c *Client) Rollback(name string) (EpochResponse, error) {
	var er EpochResponse
	err := c.post("/api/v1/models/rollback", RollbackRequest{Name: name}, &er)
	return er, err
}

// Pause opens a maintenance window.
func (c *Client) Pause() error { return c.post("/api/v1/pause", nil, nil) }

// Resume closes it and drains held work.
func (c *Client) Resume() (TickResponse, error) {
	var tr TickResponse
	err := c.post("/api/v1/resume", nil, &tr)
	return tr, err
}

// Join registers a node daemon.
func (c *Client) Join(req JoinRequest) (JoinResponse, error) {
	var jr JoinResponse
	err := c.post("/api/v1/nodes/join", req, &jr)
	return jr, err
}

// Heartbeat refreshes a node's liveness and telemetry.
func (c *Client) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var hr HeartbeatResponse
	err := c.post("/api/v1/nodes/heartbeat", req, &hr)
	return hr, err
}

// Artifact is a pulled model envelope plus what importing it needs.
type Artifact struct {
	Algorithm string
	Platform  string
	Threshold float64
	Data      []byte
}

// Artifact pulls version version of model name's envelope.
func (c *Client) Artifact(name string, version int) (Artifact, error) {
	q := url.Values{"name": {name}, "version": {strconv.Itoa(version)}}
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/models/artifact?"+q.Encode(), nil)
	if err != nil {
		return Artifact{}, err
	}
	resp, data, err := c.roundTrip(req, maxBlobBytes)
	if err != nil {
		return Artifact{}, err
	}
	th := resp.Header.Get(HeaderThreshold)
	threshold, err := strconv.ParseFloat(th, 64)
	if err != nil {
		return Artifact{}, fmt.Errorf("bad threshold header %q: %w", th, err)
	}
	return Artifact{
		Algorithm: resp.Header.Get(HeaderAlgorithm),
		Platform:  resp.Header.Get(HeaderPlatform),
		Threshold: threshold,
		Data:      data,
	}, nil
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	_, body, err := c.roundTrip(req, maxFrameBytes)
	return string(body), err
}
