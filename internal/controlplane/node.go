package controlplane

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"memfp/internal/eval"
	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Node is one data-plane daemon: it joins a control plane, receives a
// deterministic hash-slot range, runs a real sharded serving engine over
// its slice of the fleet, and streams alarms back on each forwarded tick
// batch.
//
// The node is deliberately stateless across restarts — JoinOnce rebuilds
// the engine, registry mirror and tick cursor from scratch, restoring
// the control plane's stored snapshot when one exists; the journal
// suffix past the checkpoint then replays to reconstruct serving state
// exactly.
type Node struct {
	// Name identifies the node to the control plane; rejoining with the
	// same name after a restart resumes the node's slot assignment.
	Name string
	// Shards is the local engine's shard count (<= 0: one per CPU). Any
	// value yields the identical alarm stream.
	Shards int
	// Spill backs the engine's frozen-DIMM eviction under a memory
	// budget (nil: frozen records stay on the heap).
	Spill mlops.SpillStore

	client *Client
	mux    *http.ServeMux

	mu         sync.Mutex
	monitor    *mlops.Monitor
	reg        *mlops.Registry
	engine     *mlops.Server
	modelName  string
	curVersion int
	seen       map[trace.DIMMID]bool
	served     map[int][]mlops.Alarm // tick index -> alarms already returned
	lastTick   int
	restored   int    // first tick past the restored checkpoint (0: fresh join)
	ckptBuf    []byte // the last checkpoint's frame, reused for the next
	ckptTick   string // the ?tick= of the last checkpoint frame ("": none since join)
}

// NewNode builds a node daemon for one control plane.
func NewNode(name, controlPlaneURL string) *Node {
	n := &Node{Name: name, client: NewClient(controlPlaneURL), lastTick: -1}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest2", n.handleIngest2)
	mux.HandleFunc("POST /checkpoint", n.handleCheckpoint)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	n.mux = mux
	return n
}

// Handler returns the node's HTTP surface (/ingest2, /checkpoint,
// /metrics, /healthz).
func (n *Node) Handler() http.Handler { return n.mux }

// JoinOnce registers with the control plane (selfURL is the base URL the
// control plane forwards ticks to) and builds a fresh serving engine with
// the returned parameters — mirroring the single-process engine exactly.
// When the control plane holds a checkpoint for this node (a rejoin), the
// snapshot restores into the fresh engine and the tick cursor starts at
// the checkpoint instead of zero. The node lock is held from before the
// join request: the control plane's sender may reach this node the moment
// the join registers, and /ingest2 and /checkpoint must wait for the
// engine rather than refuse.
func (n *Node) JoinOnce(selfURL string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp, err := n.client.Join(JoinRequest{Name: n.Name, Addr: selfURL})
	if err != nil {
		return err
	}
	n.monitor = mlops.NewMonitor()
	n.reg = mlops.NewRegistry()
	n.modelName = resp.Model
	n.engine = mlops.NewShardedServer(platform.ID(resp.Platform), mlops.NewFeatureStore(), n.reg, resp.Model, n.monitor, n.Shards)
	n.engine.MemoryBudget = resp.MemoryBudget
	n.engine.Spill = n.Spill
	n.curVersion = 0
	n.seen = map[trace.DIMMID]bool{}
	n.served = map[int][]mlops.Alarm{}
	n.lastTick = -1
	n.restored = 0
	n.ckptTick = ""
	if resp.Version > 0 {
		if err := n.ensureVersionLocked(resp.Version); err != nil {
			return fmt.Errorf("warm artifact pull: %w", err)
		}
	}
	if resp.CheckpointTick > 0 {
		blob, err := n.client.NodeCheckpoint(n.Name)
		if err != nil {
			return fmt.Errorf("pull checkpoint: %w", err)
		}
		if err := n.engine.RestoreSnapshot(blob); err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		// The snapshot covers ticks [0, CheckpointTick); delivery resumes
		// at CheckpointTick, so everything below it counts as served.
		n.lastTick = resp.CheckpointTick - 1
		n.restored = resp.CheckpointTick
	}
	return nil
}

// RestoredFrom reports the first tick past the checkpoint this node
// restored at its last join (0: joined fresh, no checkpoint).
func (n *Node) RestoredFrom() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.restored
}

// ensureVersion pins the node's production model to a registry version,
// pulling the artifact from the control plane if it is new here.
func (n *Node) ensureVersion(v int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ensureVersionLocked(v)
}

// ensureVersionLocked makes version v the locally-served production
// model. A version already mirrored (including an archived one — journal
// replay can pin an older version than the current promotion) is
// re-promoted; an unknown one is pulled as the versioned envelope and
// imported at its control-plane version number, so throttle/cooldown
// replay scores history under the historically-correct model.
func (n *Node) ensureVersionLocked(v int) error {
	if n.reg == nil {
		return errors.New("controlplane: node has not joined")
	}
	if v <= 0 || v == n.curVersion {
		return nil
	}
	if err := n.reg.Promote(n.modelName, v); err == nil {
		n.curVersion = v
		return nil
	}
	art, err := n.client.Artifact(n.modelName, v)
	if err != nil {
		return fmt.Errorf("pull artifact %s v%d: %w", n.modelName, v, err)
	}
	if _, err := n.reg.ImportVersion(n.modelName, v, platform.ID(art.Platform), art.Algorithm, art.Data, eval.Metrics{}, art.Threshold); err != nil {
		return fmt.Errorf("import artifact %s v%d: %w", n.modelName, v, err)
	}
	if err := n.reg.Promote(n.modelName, v); err != nil {
		return err
	}
	n.curVersion = v
	return nil
}

// serveTickLocked serves one forwarded tick through the engine — or
// replays the recorded response when the tick was already served (the
// journal index makes delivery idempotent).
func (n *Node) serveTickLocked(tick, version int, events []trace.Event, parts []string) ([]mlops.Alarm, error) {
	if tick <= n.lastTick {
		return n.served[tick], nil
	}
	if err := n.ensureVersionLocked(version); err != nil {
		return nil, err
	}
	for i, e := range events {
		if !n.seen[e.DIMM] {
			part, err := platform.PartByNumber(parts[i])
			if err != nil {
				return nil, err
			}
			n.engine.RegisterDIMM(e.DIMM, part)
			n.seen[e.DIMM] = true
		}
	}
	alarms, err := n.engine.IngestBatch(events)
	if err != nil {
		return nil, err
	}
	n.served[tick] = alarms
	n.lastTick = tick
	return alarms, nil
}

// handleIngest2 serves one MFT1 tick batch: each tick ingests (or
// replays) in journal order under its pinned model version, responses
// already returned to the control plane below the frame's prune mark are
// forgotten, and the alarms stream back as one MFR1 frame.
func (n *Node) handleIngest2(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != ContentTypeTicks {
		httpError(w, http.StatusUnsupportedMediaType, "want Content-Type %s, got %q", ContentTypeTicks, ct)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBytes))
	if err != nil {
		bodyError(w, err)
		return
	}
	prune, ticks, err := decodeTickFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.engine == nil {
		httpError(w, http.StatusServiceUnavailable, "node has not joined a control plane")
		return
	}
	for tk := range n.served {
		if tk < prune {
			delete(n.served, tk)
		}
	}
	idx := make([]int, len(ticks))
	res := make([][]mlops.Alarm, len(ticks))
	for i, dt := range ticks {
		alarms, err := n.serveTickLocked(dt.tick, dt.version, dt.events, dt.parts)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "tick %d: %v", dt.tick, err)
			return
		}
		idx[i] = dt.tick
		res[i] = alarms
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	*buf = appendRespFrame((*buf)[:0], idx, res)
	w.Header().Set("Content-Type", ContentTypeTicks+"-response")
	writeSized(w, *buf)
}

// handleCheckpoint snapshots the engine as the checkpoint frame for ?tick=:
// a delta (mlops.AppendDelta) if ?head= names its last frame, else MFS4.
// The frame is assembled into a buffer the node keeps between checkpoints
// and its length is declared, so the control plane reads it into one
// exact-size buffer instead of a chunked stream.
func (n *Node) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.engine == nil {
		httpError(w, http.StatusServiceUnavailable, "node has not joined a control plane")
		return
	}
	frame := n.engine.AppendSnapshot
	if head := q.Get("head"); head != "" && head == n.ckptTick {
		frame = n.engine.AppendDelta
	}
	n.ckptTick = "" // a failed frame leaves the engine's change marks unknown
	blob, err := frame(n.ckptBuf[:0])
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	n.ckptBuf, n.ckptTick = blob, q.Get("tick")
	w.Header().Set("Content-Type", ContentTypeSnapshot)
	writeSized(w, blob)
}

// handleMetrics is the node's Prometheus endpoint: the common families
// for this node's slice of the fleet. Score drift and alarm feedback are
// the control plane's: this monitor holds no training reference and
// resolves no alarm.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	mon, engine := n.monitor, n.engine
	n.mu.Unlock()
	if mon == nil || engine == nil {
		http.Error(w, "node has not joined a control plane", http.StatusServiceUnavailable)
		return
	}
	p := &promWriter{}
	writeCommonMetrics(p, mon, Fleet{
		Predictions: int64(mon.PredictionCount()),
		Memory:      engine.MemoryStats(),
		Shards:      mon.ShardStats(),
	}, int64(mon.AlarmCount()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.sb.String())
}

// Stats snapshots the heartbeat telemetry.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	mon, engine := n.monitor, n.engine
	n.mu.Unlock()
	if mon == nil {
		return NodeStats{}
	}
	st := NodeStats{
		Events: int64(mon.EventCount(trace.TypeCE) + mon.EventCount(trace.TypeUE) +
			mon.EventCount(trace.TypeStorm)),
		Predictions: int64(mon.PredictionCount()),
		Alarms:      int64(mon.AlarmCount()),
		ScoreBins:   mon.ScoreBins(),
	}
	if engine != nil {
		st.MemoryStats = engine.MemoryStats()
	}
	return st
}

// shardStats is the node engine's per-shard tick telemetry.
func (n *Node) shardStats() []mlops.ShardStat {
	n.mu.Lock()
	mon := n.monitor
	n.mu.Unlock()
	if mon == nil {
		return nil
	}
	return mon.ShardStats()
}

// Dashboard renders the node monitor's text summary.
func (n *Node) Dashboard() string {
	n.mu.Lock()
	mon := n.monitor
	n.mu.Unlock()
	if mon == nil {
		return "(not joined)\n"
	}
	return mon.Dashboard()
}

// Run serves the node's HTTP surface on addr, joins the control plane
// (retrying until it answers), and heartbeats every interval — pulling a
// newly promoted artifact whenever the heartbeat reports a version bump.
// Run blocks until ctx is canceled, then shuts the listener down
// gracefully and returns nil.
func (n *Node) Run(ctx context.Context, addr string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	selfURL := "http://" + ln.Addr().String()
	// The control plane gives up on a request after nodeTimeout, so a peer
	// still sending headers by then is not one; don't hold its connection.
	srv := &http.Server{Handler: n.mux, ReadHeaderTimeout: nodeTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Join, retrying while the control plane comes up.
	for {
		if err := n.JoinOnce(selfURL); err == nil {
			break
		}
		select {
		case <-ctx.Done():
			srv.Shutdown(context.Background())
			return nil
		case <-time.After(250 * time.Millisecond):
		}
	}

	beat := time.NewTicker(interval)
	defer beat.Stop()
	for {
		select {
		case <-ctx.Done():
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(shCtx)
			return nil
		case err := <-serveErr:
			if err != nil && err != http.ErrServerClosed {
				return err
			}
			return nil
		case <-beat.C:
			resp, err := n.client.Heartbeat(HeartbeatRequest{Name: n.Name, Stats: n.Stats()})
			if err != nil {
				continue // control plane restarting or unreachable; keep beating
			}
			if resp.Version > 0 {
				n.ensureVersion(resp.Version)
			}
		}
	}
}
