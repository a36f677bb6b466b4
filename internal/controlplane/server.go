// Package controlplane turns the single-process mlops pipeline into a
// small distributed serving system, modeled on the paper's Figure 6
// deployment loop: one control-plane process owns the data pipeline,
// model registry and monitoring, and N node daemons each own a
// deterministic slice of the fleet's DIMMs.
//
// The control plane exposes an HTTP API (stdlib net/http only) to ingest
// event batches — as BMC text log lines or as the compact MFE1 binary
// frame, negotiated per request by Content-Type — query the emitted
// alarm stream, list/promote/rollback registry models, pause/resume
// serving, and a hand-rolled Prometheus text-exposition /metrics
// endpoint.
//
// There is one serving path: the fleet is partitioned across N nodes,
// reached through one host-routed transport (inprocess.go) — a daemon
// over HTTP, an in-process node through its handler, with the same
// MFT1/MFR1 bytes, body caps and join. Local mode (ExpectNodes == 0) is a
// fleet of one in-process node that cannot rejoin (nothing holds it to
// restart it), so its truncation mark is its send cursor: it is never
// checkpointed. The replay emits the byte-identical alarm stream of a
// single sharded engine, surviving a node restart mid-stream. Four
// mechanisms carry that guarantee:
//
//   - Deterministic partition: DIMMs hash onto 64 hash slots with the
//     serving engine's own FNV-1a function (mlops.DIMMShard); node i of N
//     owns the contiguous slot range [i·S/N, (i+1)·S/N). Per-DIMM serving
//     state is independent, so any partition emits the same alarms.
//   - Tick journal: every ingested batch is appended to a journal with
//     the production model version pinned at append time and each node's
//     share encoded once as the MFE1 frame every delivery (a rejoin's
//     replay too) ships unchanged, about 20 B per event. Delivery to
//     each node is cursor-based and idempotent (journal index on the
//     wire); a tick's alarms are emitted — merged in (Time, DIMM) order —
//     only when every owning node has served it, strictly in journal
//     order. A dead node stalls emission but never reorders it.
//   - Pipelined fan-out: one sender goroutine per node streams batches
//     of up to eight unserved ticks over persistent connections as
//     MFT1 binary frames — the one node protocol — decoding responses
//     off the journal lock.
//     Journaling a tick only appends and applies backpressure, so the
//     driver overlaps with delivery on every node.
//   - Checkpointed truncation: once CheckpointEvery ticks have emitted the
//     control plane captures each node's engine state (after exactly the
//     ticks delivered so far) into the spill store, advancing that node's
//     low-water mark; a node ships only what changed since its last frame
//     when that frame heads its stored chain (checkpointLocked). Journal
//     entries below every node's mark and the emission cursor are truncated,
//     bounding journal memory. A rejoining node (same name, fresh state)
//     restores its chain, merged into one frame, and replays only the
//     journal suffix past its checkpoint, each tick pinned to its historical
//     model version, so throttle/cooldown state rebuilds exactly; alarms
//     from already-emitted ticks are discarded as duplicates.
//
// The journal itself (journal.go) is a plain data structure — records by
// absolute index, the emission cursor, prefix truncation — with no lock
// or I/O of its own; Server holds the mutex, the senders and the policy
// (when to checkpoint and truncate). Slot count,
// delivery window and node request timeout are constants; Config carries
// only what callers set differently.
package controlplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"memfp/internal/mlops"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// ErrNotReady reports an ingest attempted before every expected node
// daemon has joined.
var ErrNotReady = errors.New("controlplane: waiting for node daemons to join")

// Config assembles a control-plane server around a pipeline.
type Config struct {
	// Pipeline supplies the platform, feature store, registry, monitor
	// and model name. Required.
	Pipeline *mlops.Pipeline
	// ExpectNodes is the node-daemon count the fleet is partitioned
	// across; 0 serves through one node built in-process (local mode: no
	// daemons, the same journal, wire and HTTP API).
	ExpectNodes int
	// CheckpointEvery asks every node that can rejoin for a snapshot (its
	// truncation mark) once this many ticks have emitted since the last
	// ask (default 64). The ask is a flag and ticks emit per delivered
	// batch, so a node checkpoints at most once per delivery round.
	CheckpointEvery int
	// Spill stores node checkpoints (default: in-memory). In local mode a
	// store the caller sets also backs the in-process node's evicted DIMM
	// state; left unset, frozen DIMMs stay on the heap.
	Spill mlops.SpillStore
}

// Fixed shape of the fleet and its delivery pipeline.
const (
	// slots is the hash-slot count DIMMs partition into before slots map
	// onto nodes.
	slots = 64
	// nodeTimeout bounds each forwarded node request.
	nodeTimeout = 10 * time.Second
	// window bounds each node's delivery pipeline: at most this many
	// unserved non-empty ticks ride in one batched request, and
	// ingestTick applies backpressure once a live node falls further
	// behind the journal head.
	window = 8
	// streamTick is the serving tick of every Go driver: ServeStream
	// journals a stream in ticks of this many events.
	streamTick = 1024
)

// nodeRec is one registered node daemon.
type nodeRec struct {
	name     string
	addr     string
	index    int
	sent     int // next journal index to deliver (advanced optimistically)
	epoch    int // bumped on rejoin; invalidates stale in-flight responses
	inflight bool
	wantCkpt bool
	ckptTick int      // ticks < ckptTick are covered by the stored chain
	final    bool     // cannot rejoin (local mode's node): never checkpointed, truncated at sent
	ckptSize int      // the chain's bytes: its base frame plus its deltas
	ckptBase int      // the base frame's bytes (0: no chain stored)
	deltas   []string // spill keys of the deltas stored on that base, oldest first
	alive    bool
	lastBeat time.Time
	lastErr  error
	stats    NodeStats
}

// Server is the control plane. One ingest driver at a time: ServeStream
// or /api/v1/ingest, with Flush and Resume, serialize on the server
// mutex; per-node sender goroutines deliver journal batches concurrently,
// holding the mutex only to pick up work and record results — node
// round-trips and the tick-batch codecs run off the lock.
type Server struct {
	cfg    Config
	pipe   *mlops.Pipeline
	hosts  router // the one transport to the nodes (inprocess.go)
	client *http.Client
	mux    *http.ServeMux

	mu         sync.Mutex
	cond       *sync.Cond // delivery/emission progress; senders park here
	parts      map[trace.DIMMID]platform.DIMMPart
	nodes      []*nodeRec
	byName     map[string]*nodeRec
	journal    journal
	spillBytes int64 // checkpoint bytes written to the spill store
	sinceCkpt  int   // ticks emitted since the last checkpoint request
	retCursor  int   // alarms already returned to the ingest driver
	paused     bool  // maintenance window: ticks journal but are not delivered
	closed     bool
	alarms     []mlops.Alarm
	ownerBuf   []int32                 // partitionLocked scratch: per-event owner node
	eventBuf   []trace.Event           // partitionLocked scratch: the partition's backing
	frameEnc   trace.EventFrameEncoder // ingestTick's MFE1 body scratch
}

// New builds a control-plane server. With cfg.ExpectNodes == 0 it builds
// and joins local mode's in-process node before returning; otherwise
// ingest blocks (ErrNotReady) until every node has joined.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline == nil {
		return nil, errors.New("controlplane: Config.Pipeline is required")
	}
	if cfg.ExpectNodes > slots {
		return nil, fmt.Errorf("controlplane: %d nodes exceed %d hash slots", cfg.ExpectNodes, slots)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	dimmSpill := cfg.Spill // the caller's store, before the checkpoint default
	if cfg.Spill == nil {
		cfg.Spill = mlops.NewMemSpill()
	}
	s := &Server{
		cfg:    cfg,
		pipe:   cfg.Pipeline,
		parts:  map[trace.DIMMID]platform.DIMMPart{},
		byName: map[string]*nodeRec{},
	}
	s.client = &http.Client{Transport: &s.hosts, Timeout: nodeTimeout}
	s.cond = sync.NewCond(&s.mu)
	s.routes()
	if cfg.ExpectNodes > 0 {
		return s, nil
	}
	// Local mode. The node's dimm/ spill keys never meet the ckpt/ keys.
	s.cfg.ExpectNodes = 1
	n := NewNode("local", "http://control-plane")
	n.Shards = s.pipe.Shards
	n.Spill = dimmSpill
	if err := s.joinInProcess(n, inProcessHost); err != nil {
		return nil, fmt.Errorf("controlplane: in-process node: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes[0].final = true
	return s, nil
}

// Handler returns the HTTP API (the /api/v1 tree plus /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the per-node sender goroutines. Pending journal state is
// left intact; Close is for orderly shutdown, not draining (use Flush).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// RegisterDIMM announces a DIMM's static attributes before its events
// can be served — the control plane records the part for wire encoding.
// Nodes learn DIMMs from the part numbers on forwarded frames. A tick is
// encoded when it is journaled, so it carries the part registered then:
// registering the DIMM again with another part changes only the ticks
// journaled after, never a delivery or rejoin replay of an earlier one.
func (s *Server) RegisterDIMM(id trace.DIMMID, part platform.DIMMPart) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts[id] = part
}

// registerUnknown registers every DIMM in events the control plane has
// not seen yet, from parts[i] — the part number recorded beside event i —
// under one acquisition of the server lock for the whole tick. A bad part
// number returns the offending event's index.
func (s *Server) registerUnknown(events []trace.Event, parts []string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range events {
		if _, known := s.parts[e.DIMM]; known {
			continue
		}
		part, err := platform.PartByNumber(parts[i])
		if err != nil {
			return i, err
		}
		s.parts[e.DIMM] = part
	}
	return 0, nil
}

// Ready reports whether every expected node has joined, so ingest can
// proceed (local mode is ready from New on).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes) >= s.cfg.ExpectNodes
}

// TickResult is one tick/Flush/Resume outcome: the alarms whose
// emission this call completed (in stream order) and Pending, the
// journaled ticks not yet emitted.
type TickResult struct {
	Alarms  []mlops.Alarm
	Pending int
}

// ServeStream serves a time-ordered event stream, every DIMM in it
// registered: it journals the stream in ticks of streamTick events,
// checks ctx between ticks, and always flushes delivery at the end. It
// returns the alarms emitted since the previous driver call, in stream
// order. If ctx ends (or a tick is refused) first, the ticks journaled so
// far are still flushed and their alarms come back with ctx.Err() (or the
// refusal). A dead node leaves ticks pending without an error; Flush and
// /api/v1/status count them.
func (s *Server) ServeStream(ctx context.Context, events []trace.Event) ([]mlops.Alarm, error) {
	var alarms []mlops.Alarm
	var err error
	for lo := 0; lo < len(events) && err == nil; lo += streamTick {
		if err = ctx.Err(); err == nil {
			var res TickResult
			res, err = s.ingestTick(events[lo:min(lo+streamTick, len(events))])
			alarms = append(alarms, res.Alarms...)
		}
	}
	return append(alarms, s.Flush().Alarms...), err
}

// ingestTick accepts one event micro-batch — the serving tick. The batch
// is journaled as per-node MFE1 frames, with the current production model
// version, for the per-node senders to stream out; the call returns every
// alarm whose emission completed since the previous driver call (journal
// order is preserved across calls; Flush collects the rest). Backpressure:
// the call waits while any live node is more than window ticks behind. A
// dead node leaves ticks pending (no error); they emit after the node
// rejoins and Flush drains delivery.
func (s *Server) ingestTick(events []trace.Event) (TickResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nodes) < s.cfg.ExpectNodes {
		return TickResult{}, ErrNotReady
	}
	for _, e := range events {
		if _, ok := s.parts[e.DIMM]; !ok {
			return TickResult{}, fmt.Errorf("controlplane: event for unregistered DIMM %s", e.DIMM)
		}
	}
	pv, err := s.pipe.Registry.Production(s.pipe.ModelName)
	if err != nil {
		return TickResult{}, err
	}
	if mon := s.pipe.Monitor; mon != nil {
		for _, e := range events {
			mon.CountEvent(e)
		}
	}
	partOf := func(id trace.DIMMID) string { return s.parts[id].PartNumber }
	frames := make([][]byte, s.cfg.ExpectNodes)
	for i, ev := range s.partitionLocked(events) {
		if len(ev) > 0 {
			frames[i] = s.frameEnc.Append(nil, ev, partOf)
		}
	}
	s.journal.append(newTickRec(frames, pv.Version))
	s.emitLocked() // an all-empty tick emits immediately
	s.cond.Broadcast()
	for !s.closed && !s.paused && s.backloggedLocked() {
		s.cond.Wait()
	}
	return s.driverResultLocked(), nil
}

// backloggedLocked reports whether any live node is more than window
// ticks behind the journal head.
func (s *Server) backloggedLocked() bool {
	end := s.journal.end()
	for _, n := range s.nodes {
		if n.alive && end-n.sent > window {
			return true
		}
	}
	return false
}

// driverResultLocked collects the alarms emitted since the driver's last
// call and the pending-tick count.
func (s *Server) driverResultLocked() TickResult {
	var out []mlops.Alarm
	if s.retCursor < len(s.alarms) {
		out = s.alarms[s.retCursor:len(s.alarms):len(s.alarms)]
		s.retCursor = len(s.alarms)
	}
	return TickResult{Alarms: out, Pending: s.journal.pending()}
}

// quiescentLocked reports whether delivery can make no further progress:
// every live node has served the whole journal with no request or
// checkpoint outstanding.
func (s *Server) quiescentLocked() bool {
	end := s.journal.end()
	for _, n := range s.nodes {
		if !n.alive {
			continue
		}
		if n.sent < end || n.inflight || n.wantCkpt {
			return false
		}
	}
	return true
}

// Flush waits until delivery of pending ticks quiesces (after a node
// rejoin) without ingesting anything new, and returns the alarms emitted
// since the driver's last call. With a node still dead, the remaining
// ticks stay pending.
func (s *Server) Flush() TickResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked()
}

// Pause opens a maintenance window: ticks are journaled but not
// delivered.
func (s *Server) Pause() {
	s.mu.Lock()
	s.paused = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Resume closes the maintenance window and drains what it held.
func (s *Server) Resume() TickResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
	return s.drainLocked()
}

// drainLocked wakes the senders, waits until delivery quiesces (or a
// pause or Close intervenes) and collects the driver's result.
func (s *Server) drainLocked() TickResult {
	s.cond.Broadcast()
	for !s.closed && !s.paused && !s.quiescentLocked() {
		s.cond.Wait()
	}
	return s.driverResultLocked()
}

// AlarmsSince returns the emitted alarm stream from cursor i on, plus
// the next cursor.
func (s *Server) AlarmsSince(i int) ([]mlops.Alarm, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i > len(s.alarms) {
		i = len(s.alarms)
	}
	return append([]mlops.Alarm(nil), s.alarms[i:]...), len(s.alarms)
}

// MemoryStats is the fleet view's serving-memory telemetry, summed over
// the nodes.
func (s *Server) MemoryStats() mlops.MemoryStats { return s.Fleet().Memory }

// Fleet is what only the serving engines count, summed over the nodes:
// predictions, the drift of the live score distribution against the
// training reference, serving memory, and the in-process engines'
// per-shard tick telemetry (daemons report none), in node order. A
// daemon's share is as fresh as its last heartbeat; an in-process node's
// is read at call time.
type Fleet struct {
	Predictions int64
	PSI         float64
	Memory      mlops.MemoryStats
	Shards      []mlops.ShardStat
}

// Fleet reads the fleet view: the one read behind /metrics, MemoryStats
// and a driver's drift check.
func (s *Server) Fleet() Fleet { return s.fleetOf(s.status()) }

// fleetOf sums the node stats of one status snapshot.
func (s *Server) fleetOf(st StatusResponse) Fleet {
	fl := Fleet{Predictions: st.Predictions}
	var bins [10]int64
	for _, n := range st.Nodes {
		for i, c := range n.Stats.ScoreBins {
			bins[i] += c
		}
		fl.Memory.Add(n.Stats.MemoryStats)
	}
	if mon := s.pipe.Monitor; mon != nil {
		fl.PSI = mon.PSIOf(bins)
	}
	for _, ni := range st.Nodes {
		if n, ok := s.hosts.Load(strings.TrimPrefix(ni.Addr, "http://")); ok {
			fl.Shards = append(fl.Shards, n.(*Node).shardStats()...)
		}
	}
	return fl
}

// JournalStats reports the journal's depth, truncation counters and
// spill volume.
func (s *Server) JournalStats() JournalInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalInfoLocked()
}

func (s *Server) journalInfoLocked() JournalInfo {
	ji := s.journal.info()
	ji.SpillBytes = s.spillBytes
	return ji
}

// partitionLocked splits a batch into per-node slices through the slot
// assignment, preserving arrival order within each node. The slices share
// one server-owned backing array that the next tick overwrites: the
// journal keeps the frames ingestTick encodes from them, not the events.
// A fleet of one node takes the batch as it is.
func (s *Server) partitionLocked(events []trace.Event) [][]trace.Event {
	n := s.cfg.ExpectNodes
	if n == 1 {
		return [][]trace.Event{events}
	}
	counts := make([]int, n)
	s.ownerBuf = s.ownerBuf[:0]
	for _, e := range events {
		ni := s.nodeForSlot(mlops.DIMMShard(e.DIMM, slots))
		s.ownerBuf = append(s.ownerBuf, int32(ni))
		counts[ni]++
	}
	s.eventBuf = slices.Grow(s.eventBuf[:0], len(events))
	out := make([][]trace.Event, n)
	off := 0
	for i, c := range counts {
		out[i] = s.eventBuf[off : off : off+c]
		off += c
	}
	for k, e := range events {
		ni := s.ownerBuf[k]
		out[ni] = append(out[ni], e)
	}
	return out
}

// slotRange returns node i's contiguous hash-slot range [from, to).
func (s *Server) slotRange(i int) (from, to int) {
	n := s.cfg.ExpectNodes
	return i * slots / n, (i + 1) * slots / n
}

func (s *Server) nodeForSlot(slot int) int {
	for i := 0; i < s.cfg.ExpectNodes; i++ {
		if _, to := s.slotRange(i); slot < to {
			return i
		}
	}
	return s.cfg.ExpectNodes - 1
}

// emitLocked emits alarms for fully-served ticks, strictly in journal
// order, merged (Time, DIMM) within each tick — the same total order
// the single-process engine produces. Every CheckpointEvery emitted
// ticks it schedules a snapshot on each node that can rejoin, and then
// truncates what the emitted ticks freed.
func (s *Server) emitLocked() {
	for t := s.journal.nextReady(); t != nil; t = s.journal.nextReady() {
		merged := mlops.MergeAlarms(t.res)
		if mon := s.pipe.Monitor; mon != nil {
			for _, a := range merged {
				mon.CountAlarm(a)
			}
		}
		s.alarms = append(s.alarms, merged...)
		t.res = nil
		s.sinceCkpt++
		if s.sinceCkpt >= s.cfg.CheckpointEvery {
			s.sinceCkpt = 0
			for _, n := range s.nodes {
				n.wantCkpt = !n.final
			}
		}
	}
	s.maybeTruncateLocked()
}

// maybeTruncateLocked frees the journal entries below every node's
// truncation mark and the emission cursor. The mark is the checkpoint a
// rejoin restores, or the send cursor of a node that cannot rejoin.
func (s *Server) maybeTruncateLocked() {
	low := s.journal.end()
	for _, n := range s.nodes {
		mark := n.ckptTick
		if n.final {
			mark = n.sent
		}
		low = min(low, mark)
	}
	s.journal.truncateBelow(low)
}

// senderWorkLocked reports whether node n's sender has anything to do.
func (s *Server) senderWorkLocked(n *nodeRec) bool {
	if s.paused || !n.alive {
		return false
	}
	return n.wantCkpt || n.sent < s.journal.end()
}

// sender is node n's delivery goroutine: it parks on the cond until the
// journal grows past the node's cursor (or a checkpoint is due), ships
// one bounded batch per round-trip, and records results. The HTTP
// round-trip and both frame codecs run with the mutex released; an
// epoch bump (node rejoin) invalidates whatever was in flight.
func (s *Server) sender(n *nodeRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && !s.senderWorkLocked(n) {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		if n.wantCkpt {
			s.checkpointLocked(n)
			continue
		}
		s.deliverBatchLocked(n)
	}
}

// checkpointLocked captures node n's engine state into its chain in the
// spill store — a full frame (ckpt/<name>) and the deltas after it
// (ckpt/<name>/<i>) — and advances its truncation mark. Once the deltas'
// bytes reach the base's, the request names no head, so the node answers
// with a full frame; it is stored before the old deltas are deleted. The
// sender is sequential, so no batch is in flight: n.sent is exactly the
// tick count the frame covers.
func (s *Server) checkpointLocked(n *nodeRec) {
	covers := n.sent
	epoch := n.epoch
	url := fmt.Sprintf("%s/checkpoint?tick=%d", n.addr, covers)
	askDelta := n.ckptBase > 0 && n.ckptSize-n.ckptBase < n.ckptBase
	if askDelta {
		url += fmt.Sprintf("&head=%d", n.ckptTick)
	}
	n.inflight = true
	s.mu.Unlock()
	blob, err := s.postNode(url, ContentTypeSnapshot, nil, maxBlobBytes)
	s.mu.Lock()
	n.inflight = false
	if epoch != n.epoch {
		return // node rejoined mid-capture; the snapshot is stale
	}
	delta := mlops.IsSnapshotDelta(blob)
	if err == nil && delta && !askDelta {
		err = errors.New("delta frame without a chain head to apply it to")
	}
	if err != nil {
		n.alive = false
		n.lastErr = fmt.Errorf("controlplane: node %s: checkpoint: %w", n.name, err)
		s.cond.Broadcast()
		return
	}
	key := "ckpt/" + n.name
	if delta {
		key += "/" + strconv.Itoa(len(n.deltas)+1)
	}
	if err := s.cfg.Spill.Put(key, blob); err != nil {
		// Chain and mark stay put (the journal keeps what a rejoin from them
		// needs); the node's next frame is a full one. Status shows why.
		n.lastErr = fmt.Errorf("controlplane: node %s: store checkpoint: %w", n.name, err)
	} else {
		s.spillBytes += int64(len(blob))
		if delta {
			n.deltas = append(n.deltas, key)
			n.ckptSize += len(blob)
		} else {
			for _, k := range n.deltas {
				s.cfg.Spill.Delete(k) // a leftover is overwritten by the next chain
			}
			n.deltas = nil
			n.ckptBase, n.ckptSize = len(blob), len(blob)
		}
		n.ckptTick = covers
	}
	n.wantCkpt = false
	s.maybeTruncateLocked()
	s.cond.Broadcast()
}

// postNode posts body to a node daemon endpoint and returns the 200
// response's body, at most limit bytes of it (readBody); any other status
// is an error quoting it.
func (s *Server) postNode(url, contentType string, body []byte, limit int64) ([]byte, error) {
	resp, err := s.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return readBody(resp, limit)
}

// deliverBatchLocked ships the next bounded batch of unserved ticks to
// node n and records the returned alarms. The cursor advances
// optimistically before the round-trip and rolls back on failure.
func (s *Server) deliverBatchLocked(n *nodeRec) {
	start := n.sent
	end := s.journal.end()
	var batch []wireTick
	upto := start
	for upto < end && len(batch) < window {
		t := s.journal.at(upto)
		if fr := t.frames[n.index]; fr != nil {
			batch = append(batch, wireTick{tick: upto, version: t.version, frame: fr})
		}
		upto++
	}
	n.sent = upto
	if len(batch) == 0 {
		s.cond.Broadcast() // advanced over empty ticks only
		return
	}
	prune := s.journal.nextEmit
	epoch := n.epoch
	addr := n.addr
	name := n.name
	n.inflight = true
	s.mu.Unlock()
	res, err := s.forwardFrame(name, addr, prune, batch)
	s.mu.Lock()
	n.inflight = false
	if epoch != n.epoch {
		return // node rejoined; its cursor was reset to the checkpoint
	}
	if err != nil {
		n.alive = false
		n.lastErr = err
		n.sent = start
		s.cond.Broadcast()
		return
	}
	n.alive = true
	n.lastErr = nil
	for i, wt := range batch {
		s.journal.serve(wt.tick, n.index, res[i])
	}
	s.emitLocked()
	s.cond.Broadcast()
}

// forwardFrame posts one MFT1 batch to the node's /ingest2 endpoint and
// returns the alarms per tick, parallel to batch.
func (s *Server) forwardFrame(name, addr string, prune int, batch []wireTick) ([][]mlops.Alarm, error) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	*buf = appendTickFrame((*buf)[:0], prune, batch)
	body, err := s.postNode(addr+"/ingest2", ContentTypeTicks, *buf, maxFrameBytes)
	if err != nil {
		return nil, fmt.Errorf("controlplane: node %s: %w", name, err)
	}
	byTick, err := decodeRespFrame(body)
	if err != nil {
		return nil, fmt.Errorf("controlplane: node %s: %w", name, err)
	}
	out := make([][]mlops.Alarm, len(batch))
	for i, wt := range batch {
		as, ok := byTick[wt.tick]
		if !ok {
			return nil, fmt.Errorf("controlplane: node %s: response missing tick %d", name, wt.tick)
		}
		out[i] = as
	}
	return out, nil
}

// join registers (or re-registers) a node and returns its assignment.
func (s *Server) join(req JoinRequest) (JoinResponse, int, error) {
	if req.Name == "" || req.Addr == "" {
		return JoinResponse{}, http.StatusBadRequest, errors.New("join requires name and addr")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byName[req.Name]
	if ok && n.final {
		// Its served ticks' events are gone; a replay past no checkpoint
		// could not be fed.
		return JoinResponse{}, http.StatusConflict, fmt.Errorf("node %q is in-process and cannot rejoin", req.Name)
	}
	if ok {
		// Rejoin: same name, fresh node state. The node restores its
		// checkpointed snapshot (serving state after exactly ckptTick
		// ticks), so the delivery cursor resets to the checkpoint — not
		// zero — and only the journal suffix replays, under each tick's
		// pinned model version.
		n.addr = req.Addr
		n.epoch++ // invalidate any in-flight response from the old process
		n.sent = n.ckptTick
		n.alive = true
		n.lastBeat = time.Now()
		n.lastErr = nil
		s.cond.Broadcast()
	} else {
		if s.journal.end() > 0 {
			return JoinResponse{}, http.StatusConflict,
				fmt.Errorf("topology frozen after first tick; known nodes may rejoin by name")
		}
		if len(s.nodes) >= s.cfg.ExpectNodes {
			return JoinResponse{}, http.StatusConflict,
				fmt.Errorf("fleet already has %d nodes (the control plane's -nodes)", s.cfg.ExpectNodes)
		}
		n = &nodeRec{name: req.Name, addr: req.Addr, index: len(s.nodes), alive: true, lastBeat: time.Now()}
		s.nodes = append(s.nodes, n)
		s.byName[req.Name] = n
		go s.sender(n)
	}
	resp := JoinResponse{
		Platform:       string(s.pipe.Platform),
		Model:          s.pipe.ModelName,
		MemoryBudget:   s.pipe.MemoryBudget,
		CheckpointTick: n.ckptTick,
	}
	if pv, err := s.pipe.Registry.Production(s.pipe.ModelName); err == nil {
		resp.Version = pv.Version
	}
	return resp, http.StatusOK, nil
}

// checkpointBlob returns a node's stored chain, merged into the one MFS4
// frame its rejoin restores. The chain is read under the lock, which every
// change to it holds.
func (s *Server) checkpointBlob(name string) ([]byte, error) {
	s.mu.Lock()
	n, known := s.byName[name]
	if !known {
		s.mu.Unlock()
		return nil, fmt.Errorf("unknown node %q", name)
	}
	base, err := s.cfg.Spill.Get("ckpt/" + name)
	deltas := make([][]byte, len(n.deltas))
	for i := 0; i < len(deltas) && err == nil; i++ {
		deltas[i], err = s.cfg.Spill.Get(n.deltas[i])
	}
	s.mu.Unlock()
	if err != nil || len(deltas) == 0 {
		return base, err
	}
	return mlops.MergeSnapshot(base, deltas...)
}

// heartbeat refreshes a node's liveness and telemetry.
func (s *Server) heartbeat(req HeartbeatRequest) (HeartbeatResponse, int, error) {
	s.mu.Lock()
	n, ok := s.byName[req.Name]
	if ok {
		n.alive = true
		n.lastBeat = time.Now()
		n.stats = req.Stats
		s.cond.Broadcast() // a revived node's sender can resume
	}
	s.mu.Unlock()
	if !ok {
		return HeartbeatResponse{}, http.StatusNotFound, fmt.Errorf("unknown node %q (join first)", req.Name)
	}
	var resp HeartbeatResponse
	if pv, err := s.pipe.Registry.Production(s.pipe.ModelName); err == nil {
		resp.Version = pv.Version
	}
	return resp, http.StatusOK, nil
}

// status snapshots the control plane. In-process nodes send no
// heartbeats, so they heartbeat here, before s.mu is taken: a handler
// holds its node's lock while it pulls an artifact from this server.
func (s *Server) status() StatusResponse {
	s.hosts.Range(func(_, v any) bool {
		n := v.(*Node) // only an unknown name errs: a node routed, not yet joined
		_, _, _ = s.heartbeat(HeartbeatRequest{Name: n.Name, Stats: n.Stats()})
		return true
	})
	mon := s.pipe.Monitor
	st := StatusResponse{
		Platform:    string(s.pipe.Platform),
		Model:       s.pipe.ModelName,
		Mode:        "distributed",
		Epoch:       s.pipe.Registry.Epoch(),
		ExpectNodes: s.cfg.ExpectNodes,
	}
	if mon != nil {
		st.Events = int64(mon.EventCount(trace.TypeCE) + mon.EventCount(trace.TypeUE) + mon.EventCount(trace.TypeStorm))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Paused = s.paused
	if len(s.nodes) == 1 && s.nodes[0].final {
		st.Mode = "local"
	}
	st.Ticks = s.journal.end()
	st.Alarms = len(s.alarms)
	st.Pending = s.journal.pending()
	ji := s.journalInfoLocked()
	st.Journal = &ji
	for _, n := range s.nodes {
		from, to := s.slotRange(n.index)
		ni := NodeInfo{
			Name: n.name, Addr: n.addr, Index: n.index,
			SlotFrom: from, SlotTo: to,
			Alive:           n.alive,
			BeatAgeSec:      time.Since(n.lastBeat).Seconds(),
			SentTicks:       n.sent,
			Checkpoint:      n.ckptTick,
			CheckpointBytes: n.ckptSize,
			Stats:           n.stats,
		}
		if n.lastErr != nil {
			ni.LastError = n.lastErr.Error()
		}
		st.Nodes = append(st.Nodes, ni)
		st.Predictions += n.stats.Predictions
	}
	return st
}
