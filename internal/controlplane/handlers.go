package controlplane

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// routes wires the HTTP API. Method-qualified patterns give wrong-method
// requests an automatic 405.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/status", s.handleStatus)
	mux.HandleFunc("POST /api/v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /api/v1/flush", s.handleFlush)
	mux.HandleFunc("GET /api/v1/alarms", s.handleAlarms)
	mux.HandleFunc("GET /api/v1/models", s.handleModels)
	mux.HandleFunc("POST /api/v1/models/promote", s.handlePromote)
	mux.HandleFunc("POST /api/v1/models/rollback", s.handleRollback)
	mux.HandleFunc("GET /api/v1/models/artifact", s.handleArtifact)
	mux.HandleFunc("POST /api/v1/pause", s.handlePause)
	mux.HandleFunc("POST /api/v1/resume", s.handleResume)
	mux.HandleFunc("POST /api/v1/nodes/join", s.handleJoin)
	mux.HandleFunc("POST /api/v1/nodes/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /api/v1/nodes/checkpoint", s.handleCheckpointBlob)
	s.mux = mux
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}

// handleIngest accepts one tick of events — BMC text log lines, or one
// MFE1 binary frame when the request Content-Type is the events type —
// auto-registering DIMMs from the part numbers carried by either codec.
// An Accept of the alarms content type returns the tick's alarms as a
// binary MFA1 page (Pending rides the X-Memfp-Pending header) instead of
// JSON.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Decode either codec into events with their part numbers alongside
	// (and, for text, their line numbers for error messages).
	var (
		events []trace.Event
		parts  []string
		lines  []int
	)
	r.Body = http.MaxBytesReader(w, r.Body, maxTickBytes)
	if r.Header.Get("Content-Type") == ContentTypeEvents {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			bodyError(w, err)
			return
		}
		events, parts, err = trace.DecodeEventFrame(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			e, pn, err := trace.DecodeEvent(line)
			if err != nil {
				httpError(w, http.StatusBadRequest, "line %d: %v", lineNo, err)
				return
			}
			events = append(events, e)
			parts = append(parts, pn)
			lines = append(lines, lineNo)
		}
		if err := sc.Err(); err != nil {
			bodyError(w, err)
			return
		}
	}
	if i, err := s.registerUnknown(events, parts); err != nil {
		if lines != nil {
			httpError(w, http.StatusBadRequest, "line %d: %v", lines[i], err)
		} else {
			httpError(w, http.StatusBadRequest, "event %d: %v", i, err)
		}
		return
	}
	res, err := s.ingestTick(events)
	if err != nil {
		code := http.StatusInternalServerError
		if err == ErrNotReady {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	if r.Header.Get("Accept") == ContentTypeAlarms {
		buf := getWireBuf()
		defer putWireBuf(buf)
		*buf = AppendAlarmFrame((*buf)[:0], res.Alarms)
		w.Header().Set("Content-Type", ContentTypeAlarms)
		w.Header().Set(HeaderPending, strconv.Itoa(res.Pending))
		w.Write(*buf)
		return
	}
	writeJSON(w, http.StatusOK, TickResponse{Alarms: toWireSlice(res.Alarms), Pending: res.Pending})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	res := s.Flush()
	writeJSON(w, http.StatusOK, TickResponse{Alarms: toWireSlice(res.Alarms), Pending: res.Pending})
}

func (s *Server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad since cursor %q", v)
			return
		}
		since = n
	}
	alarms, next := s.AlarmsSince(since)
	writeJSON(w, http.StatusOK, AlarmsResponse{Alarms: toWireSlice(alarms), Next: next})
}

// handleCheckpointBlob serves a rejoining node's stored engine snapshot.
func (s *Server) handleCheckpointBlob(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "checkpoint requires ?name=")
		return
	}
	blob, err := s.checkpointBlob(name)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", ContentTypeSnapshot)
	writeSized(w, blob)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var out []ModelInfo
	for _, v := range s.pipe.Registry.List() {
		out = append(out, ModelInfo{
			Name: v.Name, Version: v.Version,
			Platform: string(v.Platform), Algorithm: v.Algorithm,
			Stage: string(v.Stage), Threshold: v.Threshold,
			F1: v.Metrics.F1, Precision: v.Metrics.Precision, Recall: v.Metrics.Recall,
			Artifact: len(v.Artifact),
		})
	}
	writeJSON(w, http.StatusOK, map[string][]ModelInfo{"models": out})
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Name == "" {
		req.Name = s.pipe.ModelName
	}
	if err := s.pipe.Registry.Promote(req.Name, req.Version); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EpochResponse{Epoch: s.pipe.Registry.Epoch(), Version: req.Version})
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	var req RollbackRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Name == "" {
		req.Name = s.pipe.ModelName
	}
	v, err := s.pipe.Registry.Rollback(req.Name)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EpochResponse{Epoch: s.pipe.Registry.Epoch(), Version: v.Version})
}

// handleArtifact serves one registry version's serialized envelope —
// the pull a node makes for a version pinned by its join, a heartbeat or
// a journaled tick — with the metadata its import needs in headers.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name, verQ := r.URL.Query().Get("name"), r.URL.Query().Get("version")
	vn, err := strconv.Atoi(verQ)
	if err != nil || vn <= 0 {
		httpError(w, http.StatusBadRequest, "artifact requires ?version=N, got %q", verQ)
		return
	}
	var mv *mlops.ModelVersion
	for _, v := range s.pipe.Registry.List() {
		if v.Name == name && v.Version == vn {
			mv = v
			break
		}
	}
	if mv == nil {
		httpError(w, http.StatusNotFound, "model %s v%d not found", name, vn)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderAlgorithm, mv.Algorithm)
	w.Header().Set(HeaderPlatform, string(mv.Platform))
	w.Header().Set(HeaderThreshold, strconv.FormatFloat(mv.Threshold, 'x', -1, 64))
	writeSized(w, mv.Artifact)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.Pause()
	writeJSON(w, http.StatusOK, map[string]bool{"paused": true})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	res := s.Resume()
	writeJSON(w, http.StatusOK, TickResponse{Alarms: toWireSlice(res.Alarms), Pending: res.Pending})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, code, err := s.join(req)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, code, err := s.heartbeat(req)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
