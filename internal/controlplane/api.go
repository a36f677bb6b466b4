package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"memfp/internal/mlops"
)

// Wire types of the control-plane HTTP API (JSON bodies). Event batches
// travel as BMC text log lines (trace.EncodeEvent) or as binary MFE1
// frames, negotiated per request by Content-Type; an ingest's alarms come
// back as JSON or, on Accept, as a binary MFA1 page (see wire.go). JSON
// alarm scores round-trip bit-exactly through encoding/json's
// shortest-representation float64 codec and binary ones travel as raw
// IEEE-754 bits; thresholds ride hex-float headers — nothing on the wire
// can perturb the byte-identical alarm invariant.

// Artifact response headers.
const (
	HeaderAlgorithm = "X-Memfp-Algorithm"
	HeaderPlatform  = "X-Memfp-Platform"
	// HeaderThreshold is the version's decision threshold as a hex float
	// (strconv 'x' format) — exact, unlike any decimal rendering.
	HeaderThreshold = "X-Memfp-Threshold"
)

// AlarmJSON is one alarm on the wire.
type AlarmJSON struct {
	Time     int64   `json:"time"`
	Platform string  `json:"platform"`
	Server   int     `json:"server"`
	Slot     int     `json:"slot"`
	Score    float64 `json:"score"`
	Model    string  `json:"model"`
}

func toWire(a mlops.Alarm) AlarmJSON {
	return AlarmJSON{
		Time:     int64(a.Time),
		Platform: string(a.DIMM.Platform),
		Server:   a.DIMM.Server,
		Slot:     a.DIMM.Slot,
		Score:    a.Score,
		Model:    a.Model,
	}
}

func toWireSlice(as []mlops.Alarm) []AlarmJSON {
	out := make([]AlarmJSON, len(as))
	for i, a := range as {
		out[i] = toWire(a)
	}
	return out
}

// TickResponse reports one ingest/flush/resume call's outcome.
type TickResponse struct {
	Alarms  []AlarmJSON `json:"alarms"`
	Pending int         `json:"pending"`
}

// AlarmsResponse is a page of the emitted alarm stream; Next is the
// cursor for the following poll.
type AlarmsResponse struct {
	Alarms []AlarmJSON `json:"alarms"`
	Next   int         `json:"next"`
}

// ModelInfo is one registry version's metadata.
type ModelInfo struct {
	Name      string  `json:"name"`
	Version   int     `json:"version"`
	Platform  string  `json:"platform"`
	Algorithm string  `json:"algorithm"`
	Stage     string  `json:"stage"`
	Threshold float64 `json:"threshold"`
	F1        float64 `json:"f1"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	Artifact  int     `json:"artifact_bytes"`
}

// PromoteRequest / RollbackRequest drive registry lifecycle changes.
type PromoteRequest struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

type RollbackRequest struct {
	Name string `json:"name"`
}

// EpochResponse reports the registry epoch after a lifecycle change.
type EpochResponse struct {
	Epoch   uint64 `json:"epoch"`
	Version int    `json:"version"` // production version now serving
}

// NodeStats is a node daemon's heartbeat telemetry: its monitor's
// counters and, flattened beside them on the wire, its engine's memory
// stats.
type NodeStats struct {
	Events      int64     `json:"events"`
	Predictions int64     `json:"predictions"`
	Alarms      int64     `json:"alarms"`
	ScoreBins   [10]int64 `json:"score_bins"`
	mlops.MemoryStats
}

// JoinRequest registers a node daemon (or re-registers one after a
// restart — same name, fresh serving state).
type JoinRequest struct {
	Name string `json:"name"`
	Addr string `json:"addr"` // node base URL the control plane forwards to
}

// JoinResponse is everything a node needs to build a serving engine
// identical to the single-process one. Its slot range stays on the
// control plane, which partitions every tick before sending it
// (/api/v1/status shows the ranges).
type JoinResponse struct {
	Platform     string `json:"platform"`
	Model        string `json:"model"`
	MemoryBudget int64  `json:"memory_budget"`
	Version      int    `json:"version"` // current production version (0 = none yet)
	// CheckpointTick > 0 tells a rejoining node that a snapshot covering
	// ticks [0, CheckpointTick) is stored on the control plane; the node
	// restores it instead of replaying from zero.
	CheckpointTick int `json:"checkpoint_tick,omitempty"`
}

// HeartbeatRequest / HeartbeatResponse keep a node registered and tell
// it the current production version so it can pull a newly promoted
// artifact.
type HeartbeatRequest struct {
	Name  string    `json:"name"`
	Stats NodeStats `json:"stats"`
}

type HeartbeatResponse struct {
	Version int `json:"version"`
}

// NodeInfo is one registered node in a status report.
type NodeInfo struct {
	Name       string    `json:"name"`
	Addr       string    `json:"addr"`
	Index      int       `json:"index"`
	SlotFrom   int       `json:"slot_from"`
	SlotTo     int       `json:"slot_to"`
	Alive      bool      `json:"alive"`
	BeatAgeSec float64   `json:"beat_age_sec"`
	SentTicks  int       `json:"sent_ticks"`
	Checkpoint int       `json:"checkpoint"` // ticks covered by the stored chain
	Stats      NodeStats `json:"stats"`

	// CheckpointBytes is the stored chain's size (its full frame plus its
	// deltas); LastError is why the
	// node's last forward or checkpoint failed (cleared by the next
	// success or rejoin).
	CheckpointBytes int    `json:"checkpoint_bytes"`
	LastError       string `json:"last_error,omitempty"`
}

// JournalInfo is the tick journal's lifecycle telemetry.
type JournalInfo struct {
	Depth          int   `json:"depth"`           // ticks resident in memory
	DepthHighWater int   `json:"depth_highwater"` // peak resident depth
	Base           int   `json:"base"`            // first journal index still in memory
	Truncations    int   `json:"truncations"`
	TruncatedTicks int   `json:"truncated_ticks"`
	SpillBytes     int64 `json:"spill_bytes"` // checkpoint bytes spilled
	Bytes          int64 `json:"bytes"`       // MFE1 frame bytes of the ticks in memory
}

// StatusResponse summarizes the control plane.
type StatusResponse struct {
	Platform    string       `json:"platform"`
	Model       string       `json:"model"`
	Mode        string       `json:"mode"` // "local" or "distributed"
	Epoch       uint64       `json:"epoch"`
	Paused      bool         `json:"paused"`
	Ticks       int          `json:"ticks"`
	Pending     int          `json:"pending"`
	Alarms      int          `json:"alarms"`
	Events      int64        `json:"events"`
	Predictions int64        `json:"predictions"`
	ExpectNodes int          `json:"expect_nodes"`
	Nodes       []NodeInfo   `json:"nodes,omitempty"`
	Journal     *JournalInfo `json:"journal,omitempty"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// Event-carrying request bodies are decoded from memory, so each is read
// through an http.MaxBytesReader and refused with 413 beyond its cap.
const (
	// maxFrameBytes caps one MFT1 batch on a node's /ingest2. A batch
	// carries at most window ticks, each an MFE1 slice no larger than the
	// tick it was cut from (BMC text shrinks about fivefold on the way),
	// so it also fixes the cap on the ticks the control plane accepts.
	maxFrameBytes = 32 << 20
	// maxTickBytes caps one tick on /api/v1/ingest in either codec:
	// window accepted ticks fill at most half a frame, leaving the rest
	// for framing. 2 MiB is ~100k events as MFE1 and ~15k as BMC text;
	// ServeStream's ticks are streamTick (1024) events.
	maxTickBytes = maxFrameBytes / (2 * window)
)

// Response bodies are bounded too: neither the control plane reading a
// node nor a Client reading the control plane buffers whatever its peer
// chooses to send (readBody). Alarm frames and JSON answer a request no
// larger than maxFrameBytes and are held to it.
//
// maxBlobBytes caps an engine checkpoint (a node's /checkpoint, the
// control plane's stored copy on a rejoin) and a model artifact. A
// checkpoint is one MFS4 record per DIMM — about 300 bytes for the
// benchmark fleets' short histories, 1–2 KiB with a full observation
// window retained — so 256 MiB admits a node serving well over 100k
// DIMMs; the largest artifact here (the FT-Transformer) is under 1 MiB.
const maxBlobBytes = 256 << 20

// writeSized writes a whole response body with its length declared, so
// the peer's readBody sizes one buffer for it; left to itself net/http
// chunks anything past its 2 KiB write buffer.
func writeSized(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// readBody reads a peer's response body, at most limit bytes of it. A
// declared Content-Length is checked before anything is allocated and
// read into one exact-size buffer; an undeclared (chunked) body is read
// through a capped reader and refused once it overruns.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > limit {
			return nil, fmt.Errorf("response declares %d bytes, limit %d", n, limit)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("read %d-byte response: %w", n, err)
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("response exceeds the %d-byte limit", limit)
	}
	return body, nil
}

// bodyError answers a failed request-body read: 413 when the body ran
// past its cap, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "read body: %v", err)
}

// readJSON decodes a request body, rejecting trailing garbage.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}
