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
// Distribution preserves the repo's core invariant: N node daemons
// replay a fleet to the byte-identical alarm stream of the single-process
// engine, surviving a node restart mid-stream. Four mechanisms carry
// that guarantee:
//
//   - Deterministic partition: DIMMs hash onto Slots hash slots with the
//     serving engine's own FNV-1a function (mlops.DIMMShard); node i of N
//     owns the contiguous slot range [i·S/N, (i+1)·S/N). Per-DIMM serving
//     state is independent, so any partition emits the same alarms.
//   - Tick journal: every ingested batch is appended to a journal with
//     the production model version pinned at append time. Delivery to
//     each node is cursor-based and idempotent (journal index on the
//     wire); a tick's alarms are emitted — merged in (Time, DIMM) order —
//     only when every owning node has served it, strictly in journal
//     order. A dead node stalls emission but never reorders it.
//   - Pipelined fan-out: one sender goroutine per node streams batches
//     of up to Window unserved ticks over persistent connections as
//     MFT1 binary frames — the one node protocol — decoding responses
//     off the journal lock.
//     IngestTick only journals and applies backpressure, so the driver
//     overlaps with delivery on every node.
//   - Checkpointed truncation: every CheckpointEvery emitted ticks the
//     control plane captures each node's engine snapshot (its serving
//     state after exactly the ticks delivered so far) into the spill
//     store, advancing that node's low-water mark. Journal entries below
//     every node's mark and the emission cursor are truncated — spilled
//     to the store as an archival MFT1 segment — bounding journal
//     memory. A rejoining node (same name, fresh state) restores the
//     snapshot and replays only the journal suffix past its checkpoint,
//     each tick pinned to its historical model version, so
//     throttle/cooldown state rebuilds exactly; alarms from
//     already-emitted ticks are discarded as duplicates.
package controlplane

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	// across; 0 serves in-process through the pipeline's own sharded
	// engine (no daemons, same HTTP API).
	ExpectNodes int
	// Slots is the hash-slot count DIMMs partition into before slots map
	// onto nodes (default 64). Fixed for the lifetime of the fleet.
	Slots int
	// Timeout bounds each forwarded node request (default 10s).
	Timeout time.Duration
	// Window bounds each node's delivery pipeline: at most this many
	// unserved non-empty ticks ride in one batched request, and
	// IngestTick applies backpressure once a live node falls further
	// behind the journal head (default 8).
	Window int
	// CheckpointEvery schedules a snapshot from every node each time
	// this many ticks have been emitted (default 64), advancing the
	// journal's truncation low-water mark.
	CheckpointEvery int
	// Spill stores node checkpoints and truncated journal segments
	// (default: in-memory).
	Spill mlops.SpillStore
}

// tickRec is one journaled ingest batch.
type tickRec struct {
	slices  [][]trace.Event // per node index
	res     [][]mlops.Alarm // per node index, until emitted
	served  []bool          // per node index
	version int             // production model version pinned at append
	done    bool            // alarms emitted
}

// nodeRec is one registered node daemon.
type nodeRec struct {
	name     string
	addr     string
	index    int
	sent     int // next journal index to deliver (advanced optimistically)
	epoch    int // bumped on rejoin; invalidates stale in-flight responses
	inflight bool
	wantCkpt bool
	ckptTick int // ticks < ckptTick are covered by the stored snapshot
	alive    bool
	lastBeat time.Time
	lastErr  error
	stats    NodeStats
}

// Server is the control plane. One ingest driver at a time: IngestTick,
// Flush and Resume serialize on the server mutex; per-node sender
// goroutines deliver journal batches concurrently, holding the mutex
// only to pick up work and record results — node round-trips and frame
// codecs run off the lock.
type Server struct {
	cfg    Config
	pipe   *mlops.Pipeline
	engine *mlops.Server // local serving engine (ExpectNodes == 0)
	client *http.Client
	mux    *http.ServeMux
	spill  mlops.SpillStore

	mu          sync.Mutex
	cond        *sync.Cond // delivery/emission progress; senders park here
	parts       map[trace.DIMMID]platform.DIMMPart
	nodes       []*nodeRec
	byName      map[string]*nodeRec
	journal     []*tickRec // journal[i] holds tick journalBase+i
	journalBase int        // first journal index still in memory
	journalHigh int        // high-water mark of in-memory journal depth
	truncations int
	truncated   int   // ticks truncated out of the journal
	spillBytes  int64 // bytes written to the spill store
	sinceCkpt   int   // ticks emitted since the last checkpoint request
	nextEmit    int   // journal index of the next unemitted tick
	retCursor   int   // alarms already returned to the ingest driver
	ticks       int
	started     bool // first distributed tick journaled; topology frozen
	paused      bool // distributed-mode pause (local mode delegates to engine)
	closed      bool
	alarms      []mlops.Alarm
	ownerBuf    []int32 // partitionLocked scratch: per-event owner node
}

// New builds a control-plane server. With cfg.ExpectNodes == 0 it serves
// locally through the pipeline's sharded engine; otherwise ingest blocks
// (ErrNotReady) until every node daemon has joined.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline == nil {
		return nil, errors.New("controlplane: Config.Pipeline is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 64
	}
	if cfg.ExpectNodes > cfg.Slots {
		return nil, fmt.Errorf("controlplane: %d nodes exceed %d hash slots", cfg.ExpectNodes, cfg.Slots)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.Spill == nil {
		cfg.Spill = mlops.NewMemSpill()
	}
	s := &Server{
		cfg:    cfg,
		pipe:   cfg.Pipeline,
		client: &http.Client{Timeout: cfg.Timeout},
		spill:  cfg.Spill,
		parts:  map[trace.DIMMID]platform.DIMMPart{},
		byName: map[string]*nodeRec{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.ExpectNodes == 0 {
		s.engine = cfg.Pipeline.NewServer()
	}
	s.routes()
	return s, nil
}

// Handler returns the HTTP API (the /api/v1 tree plus /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline returns the wrapped pipeline.
func (s *Server) Pipeline() *mlops.Pipeline { return s.pipe }

// Close stops the per-node sender goroutines. Pending journal state is
// left intact; Close is for orderly shutdown, not draining (use Flush).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// RegisterDIMM announces a DIMM's static attributes before its events
// can be served — the control plane records the part for wire encoding
// and, in local mode, registers it with the engine. Nodes learn DIMMs
// from the part numbers on forwarded frames.
func (s *Server) RegisterDIMM(id trace.DIMMID, part platform.DIMMPart) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(id, part)
}

func (s *Server) registerLocked(id trace.DIMMID, part platform.DIMMPart) {
	s.parts[id] = part
	if s.engine != nil {
		s.engine.RegisterDIMM(id, part)
	}
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
		s.registerLocked(e.DIMM, part)
	}
	return 0, nil
}

// Ready reports whether ingest can proceed (local mode is always ready).
func (s *Server) Ready() bool {
	if s.engine != nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes) >= s.cfg.ExpectNodes
}

// Paused reports whether serving is inside a maintenance window.
func (s *Server) Paused() bool {
	if s.engine != nil {
		return s.engine.Paused()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// TickResult is one IngestTick/Flush/Resume outcome: the alarms whose
// emission this call completed (in stream order) and how much accepted
// work is still unserved — journaled ticks awaiting a node in
// distributed mode, held events during a local maintenance window.
type TickResult struct {
	Alarms  []mlops.Alarm
	Pending int
}

// journalEnd returns one past the last journal index.
func (s *Server) journalEnd() int { return s.journalBase + len(s.journal) }

// rec returns the record at an absolute journal index.
func (s *Server) rec(i int) *tickRec { return s.journal[i-s.journalBase] }

// IngestTick accepts one event micro-batch — the serving tick. In local
// mode it is mlops.Server.IngestBatch behind the control-plane
// bookkeeping; in distributed mode the batch is journaled with the
// current production model version for the per-node senders to stream
// out, and the call returns every alarm whose emission completed since
// the previous driver call (journal order is preserved across calls).
// Backpressure: the call waits while any live node is more than Window
// ticks behind. A dead node leaves ticks pending (no error); they emit
// after the node rejoins and Flush drains delivery.
func (s *Server) IngestTick(events []trace.Event) (TickResult, error) {
	if s.engine != nil {
		alarms, err := s.engine.IngestBatch(events)
		s.mu.Lock()
		s.ticks++
		s.alarms = append(s.alarms, alarms...)
		s.retCursor = len(s.alarms)
		s.mu.Unlock()
		return TickResult{Alarms: alarms, Pending: s.engine.HeldEvents()}, err
	}
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
	s.started = true
	n := s.cfg.ExpectNodes
	t := &tickRec{
		slices:  s.partitionLocked(events),
		res:     make([][]mlops.Alarm, n),
		served:  make([]bool, n),
		version: pv.Version,
	}
	// A node with no events in this tick has nothing to serve: mark it
	// served at append time so emission never waits on an empty delivery.
	for i, sl := range t.slices {
		if len(sl) == 0 {
			t.served[i] = true
		}
	}
	if mon := s.pipe.Monitor; mon != nil {
		for _, e := range events {
			mon.CountEvent(e)
		}
	}
	s.journal = append(s.journal, t)
	if d := len(s.journal); d > s.journalHigh {
		s.journalHigh = d
	}
	s.ticks++
	s.emitLocked() // an all-empty tick emits immediately
	s.cond.Broadcast()
	for !s.closed && !s.paused && s.backloggedLocked() {
		s.cond.Wait()
	}
	return s.driverResultLocked(), nil
}

// backloggedLocked reports whether any live node is more than Window
// ticks behind the journal head.
func (s *Server) backloggedLocked() bool {
	end := s.journalEnd()
	for _, n := range s.nodes {
		if n.alive && end-n.sent > s.cfg.Window {
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
	return TickResult{Alarms: out, Pending: s.journalEnd() - s.nextEmit}
}

// quiescentLocked reports whether delivery can make no further progress:
// every live node has served the whole journal with no request or
// checkpoint outstanding.
func (s *Server) quiescentLocked() bool {
	end := s.journalEnd()
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
func (s *Server) Flush() (TickResult, error) {
	if s.engine != nil {
		return TickResult{Pending: s.engine.HeldEvents()}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Broadcast()
	for !s.closed && !s.paused && !s.quiescentLocked() {
		s.cond.Wait()
	}
	return s.driverResultLocked(), nil
}

// Pause opens a maintenance window: local mode holds events in the
// engine's queue, distributed mode journals ticks without delivering.
func (s *Server) Pause() {
	if s.engine != nil {
		s.engine.Pause()
		return
	}
	s.mu.Lock()
	s.paused = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Resume closes the maintenance window and drains what it held.
func (s *Server) Resume() (TickResult, error) {
	if s.engine != nil {
		alarms, err := s.engine.Resume()
		s.mu.Lock()
		s.alarms = append(s.alarms, alarms...)
		s.retCursor = len(s.alarms)
		s.mu.Unlock()
		return TickResult{Alarms: alarms, Pending: s.engine.HeldEvents()}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
	s.cond.Broadcast()
	for !s.closed && !s.paused && !s.quiescentLocked() {
		s.cond.Wait()
	}
	return s.driverResultLocked(), nil
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

// MemoryStats merges serving-memory telemetry: the local engine's in
// local mode, the node heartbeats' in distributed mode.
func (s *Server) MemoryStats() mlops.MemoryStats {
	if s.engine != nil {
		return s.engine.MemoryStats()
	}
	var ms mlops.MemoryStats
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		ms.ResidentBytes += n.stats.ResidentBytes
		ms.Evictions += n.stats.Evictions
		ms.Rehydrations += n.stats.Rehydrations
		ms.Compactions += n.stats.Compactions
		ms.CompactedEvents += n.stats.CompactedEvents
		ms.SpilledBytes += n.stats.SpilledBytes
		ms.Spills += n.stats.Spills
	}
	return ms
}

// JournalStats reports the journal's depth, truncation counters and
// spill volume.
func (s *Server) JournalStats() JournalInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalInfoLocked()
}

func (s *Server) journalInfoLocked() JournalInfo {
	return JournalInfo{
		Depth:          len(s.journal),
		DepthHighWater: s.journalHigh,
		Base:           s.journalBase,
		Truncations:    s.truncations,
		TruncatedTicks: s.truncated,
		SpillBytes:     s.spillBytes,
	}
}

// partitionLocked splits a batch into per-node slices through the
// slot assignment, preserving arrival order within each node. The
// journal retains every tick's partition until truncation, so the
// slices share one exactly-sized backing array instead of paying
// append-growth garbage per tick.
func (s *Server) partitionLocked(events []trace.Event) [][]trace.Event {
	n := s.cfg.ExpectNodes
	counts := make([]int, n)
	s.ownerBuf = s.ownerBuf[:0]
	for _, e := range events {
		ni := s.nodeForSlot(mlops.DIMMShard(e.DIMM, s.cfg.Slots))
		s.ownerBuf = append(s.ownerBuf, int32(ni))
		counts[ni]++
	}
	backing := make([]trace.Event, len(events))
	out := make([][]trace.Event, n)
	off := 0
	for i, c := range counts {
		out[i] = backing[off : off : off+c]
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
	return i * s.cfg.Slots / n, (i + 1) * s.cfg.Slots / n
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
// ticks it schedules a snapshot on each node so the journal's truncation
// low-water mark can advance.
func (s *Server) emitLocked() {
	for s.nextEmit < s.journalEnd() {
		t := s.rec(s.nextEmit)
		ready := true
		for _, sv := range t.served {
			if !sv {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		merged := mlops.MergeAlarms(t.res)
		if mon := s.pipe.Monitor; mon != nil {
			for _, a := range merged {
				mon.CountAlarm(a)
			}
		}
		s.alarms = append(s.alarms, merged...)
		t.res, t.done = nil, true
		s.nextEmit++
		s.sinceCkpt++
		if s.sinceCkpt >= s.cfg.CheckpointEvery {
			s.sinceCkpt = 0
			for _, n := range s.nodes {
				n.wantCkpt = true
			}
		}
	}
}

// maybeTruncateLocked drops journal entries below every node's
// checkpoint mark and the emission cursor, spilling the truncated
// segment to the store as an archival MFT1 frame. Entries a rejoining
// node might still need (>= its checkpoint) are never truncated.
func (s *Server) maybeTruncateLocked() {
	low := s.nextEmit
	for _, n := range s.nodes {
		if n.ckptTick < low {
			low = n.ckptTick
		}
	}
	if low <= s.journalBase {
		return
	}
	seg := make([]wireTick, 0, low-s.journalBase)
	for i := s.journalBase; i < low; i++ {
		t := s.rec(i)
		var flat []trace.Event
		for _, sl := range t.slices {
			flat = append(flat, sl...)
		}
		seg = append(seg, wireTick{tick: i, version: t.version, events: flat})
	}
	blob := appendTickFrame(nil, s.journalBase, seg, s.partNumberLocked)
	key := fmt.Sprintf("journal/%d-%d", s.journalBase, low)
	if err := s.spill.Put(key, blob); err == nil {
		s.spillBytes += int64(len(blob))
	}
	s.truncated += low - s.journalBase
	s.truncations++
	// Copy the suffix into a fresh slice so the truncated prefix's event
	// memory is actually released.
	s.journal = append([]*tickRec(nil), s.journal[low-s.journalBase:]...)
	s.journalBase = low
}

// partNumberLocked resolves a registered DIMM's part number for frame
// encoding.
func (s *Server) partNumberLocked(id trace.DIMMID) string {
	return s.parts[id].PartNumber
}

// senderWorkLocked reports whether node n's sender has anything to do.
func (s *Server) senderWorkLocked(n *nodeRec) bool {
	if s.paused || !n.alive {
		return false
	}
	return n.wantCkpt || n.sent < s.journalEnd()
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

// checkpointLocked captures node n's engine snapshot into the spill
// store and advances its truncation mark. The sender is sequential, so
// no batch is in flight: n.sent is exactly the tick count the snapshot
// covers.
func (s *Server) checkpointLocked(n *nodeRec) {
	covers := n.sent
	epoch := n.epoch
	addr := n.addr
	n.inflight = true
	s.mu.Unlock()
	blob, err := s.fetchCheckpoint(addr)
	s.mu.Lock()
	n.inflight = false
	if epoch != n.epoch {
		return // node rejoined mid-capture; the snapshot is stale
	}
	if err != nil {
		n.alive = false
		n.lastErr = err
		s.cond.Broadcast()
		return
	}
	if perr := s.spill.Put("ckpt/"+n.name, blob); perr == nil {
		s.spillBytes += int64(len(blob))
		n.ckptTick = covers
	}
	n.wantCkpt = false
	s.maybeTruncateLocked()
	s.cond.Broadcast()
}

// fetchCheckpoint asks a node for its engine snapshot.
func (s *Server) fetchCheckpoint(addr string) ([]byte, error) {
	resp, err := s.client.Post(addr+"/checkpoint", ContentTypeSnapshot, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("controlplane: checkpoint: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return io.ReadAll(resp.Body)
}

// deliverBatchLocked ships the next bounded batch of unserved ticks to
// node n and records the returned alarms. The cursor advances
// optimistically before the round-trip and rolls back on failure.
func (s *Server) deliverBatchLocked(n *nodeRec) {
	start := n.sent
	end := s.journalEnd()
	var batch []wireTick
	parts := map[trace.DIMMID]platform.DIMMPart{}
	upto := start
	for upto < end && len(batch) < s.cfg.Window {
		t := s.rec(upto)
		if ev := t.slices[n.index]; len(ev) > 0 {
			batch = append(batch, wireTick{tick: upto, version: t.version, events: ev})
			for _, e := range ev {
				if _, ok := parts[e.DIMM]; !ok {
					parts[e.DIMM] = s.parts[e.DIMM]
				}
			}
		}
		upto++
	}
	n.sent = upto
	if len(batch) == 0 {
		s.cond.Broadcast() // advanced over empty ticks only
		return
	}
	prune := s.nextEmit
	epoch := n.epoch
	addr := n.addr
	name := n.name
	n.inflight = true
	s.mu.Unlock()
	res, err := s.forwardFrame(name, addr, prune, batch, parts)
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
		if wt.tick < s.journalBase {
			continue // truncated behind us; already emitted
		}
		t := s.rec(wt.tick)
		if !t.done {
			t.res[n.index] = res[i]
		}
		t.served[n.index] = true
	}
	s.emitLocked()
	s.maybeTruncateLocked()
	s.cond.Broadcast()
}

// forwardFrame posts one MFT1 batch to the node's /ingest2 endpoint and
// returns the alarms per tick, parallel to batch.
func (s *Server) forwardFrame(name, addr string, prune int, batch []wireTick,
	parts map[trace.DIMMID]platform.DIMMPart) ([][]mlops.Alarm, error) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	*buf = appendTickFrame((*buf)[:0], prune, batch, func(id trace.DIMMID) string {
		return parts[id].PartNumber
	})
	resp, err := s.client.Post(addr+"/ingest2", ContentTypeTicks, bytes.NewReader(*buf))
	if err != nil {
		return nil, fmt.Errorf("controlplane: node %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("controlplane: node %s: %s: %s", name, resp.Status, bytes.TrimSpace(b))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("controlplane: node %s: read response: %w", name, err)
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
	if s.cfg.ExpectNodes == 0 {
		return JoinResponse{}, http.StatusConflict, errors.New("control plane is serving locally; restart it with -nodes N to distribute")
	}
	n, ok := s.byName[req.Name]
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
		if s.started {
			return JoinResponse{}, http.StatusConflict,
				fmt.Errorf("topology frozen after first tick; known nodes may rejoin by name")
		}
		if len(s.nodes) >= s.cfg.ExpectNodes {
			return JoinResponse{}, http.StatusConflict,
				fmt.Errorf("fleet already has %d nodes", s.cfg.ExpectNodes)
		}
		n = &nodeRec{name: req.Name, addr: req.Addr, index: len(s.nodes), alive: true, lastBeat: time.Now()}
		s.nodes = append(s.nodes, n)
		s.byName[req.Name] = n
		go s.sender(n)
	}
	from, to := s.slotRange(n.index)
	resp := JoinResponse{
		Index:          n.index,
		Nodes:          s.cfg.ExpectNodes,
		Slots:          s.cfg.Slots,
		SlotFrom:       from,
		SlotTo:         to,
		Platform:       string(s.pipe.Platform),
		Model:          s.pipe.ModelName,
		Epoch:          s.pipe.Registry.Epoch(),
		CheckpointTick: n.ckptTick,
	}
	// Serving parameters the node engine must mirror. A throwaway local
	// engine would drift from pipeline defaults; read them from a probe
	// engine built the same way.
	probe := s.pipe.NewServer()
	resp.PredictEvery = int64(probe.PredictEvery)
	resp.Cooldown = int64(probe.Cooldown)
	resp.MemoryBudget = probe.MemoryBudget
	if pv, err := s.pipe.Registry.Production(s.pipe.ModelName); err == nil {
		resp.Version = pv.Version
	}
	return resp, http.StatusOK, nil
}

// checkpointBlob returns a node's stored snapshot for its rejoin
// restore.
func (s *Server) checkpointBlob(name string) ([]byte, error) {
	s.mu.Lock()
	_, known := s.byName[name]
	s.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("unknown node %q", name)
	}
	return s.spill.Get("ckpt/" + name)
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
	resp := HeartbeatResponse{Epoch: s.pipe.Registry.Epoch()}
	if pv, err := s.pipe.Registry.Production(s.pipe.ModelName); err == nil {
		resp.Version = pv.Version
	}
	return resp, http.StatusOK, nil
}

// status snapshots the control plane.
func (s *Server) status() StatusResponse {
	mon := s.pipe.Monitor
	st := StatusResponse{
		Platform:    string(s.pipe.Platform),
		Model:       s.pipe.ModelName,
		Mode:        "distributed",
		Epoch:       s.pipe.Registry.Epoch(),
		Paused:      s.Paused(),
		ExpectNodes: s.cfg.ExpectNodes,
	}
	if s.engine != nil {
		st.Mode = "local"
	}
	if mon != nil {
		st.Events = int64(mon.EventCount(trace.TypeCE) + mon.EventCount(trace.TypeUE) + mon.EventCount(trace.TypeStorm))
		st.Predictions = int64(mon.PredictionCount())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Ticks = s.ticks
	st.Alarms = len(s.alarms)
	if s.engine != nil {
		st.Pending = s.engine.HeldEvents()
	} else {
		st.Pending = s.journalEnd() - s.nextEmit
		ji := s.journalInfoLocked()
		st.Journal = &ji
	}
	for _, n := range s.nodes {
		from, to := s.slotRange(n.index)
		st.Nodes = append(st.Nodes, NodeInfo{
			Name: n.name, Addr: n.addr, Index: n.index,
			SlotFrom: from, SlotTo: to,
			Alive:      n.alive,
			BeatAgeSec: time.Since(n.lastBeat).Seconds(),
			SentTicks:  n.sent,
			Checkpoint: n.ckptTick,
			Stats:      n.stats,
		})
		st.Predictions += n.stats.Predictions
	}
	return st
}
