package mlops

import (
	"fmt"
	"slices"

	"memfp/internal/features"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Engine state serialization. A snapshot is the full serving state of
// one engine — per-DIMM retained events, throttle/cooldown scalars,
// compaction bookkeeping and fold accumulators — as one deterministic
// blob. Node daemons checkpoint through this so a restarted node can
// rejoin from the checkpoint instead of replaying the journal from zero,
// and the same per-DIMM record format backs disk spill of frozen DIMMs.
//
// Restored DIMMs come back frozen; the first event for each one thaws it
// through the regular eviction-rehydration path, which is pinned exact
// by TestEvictionTransparent — so restoring is scoring-invisible.
//
// A snapshot costs the DIMMs that changed since the last one, not the
// DIMMs that exist. Each resident DIMM keeps the record the last snapshot
// encoded for it (dimmState.rec) and ingestLocked drops it right after
// appending an event to the DIMM's log. That one place is enough: every
// field a record serializes — the retained events and their order, the
// prediction throttle, the alarm cooldown, the compaction horizon and the
// fold state compaction rewrites — changes only while serving a tick,
// under the shard lock, for a DIMM that tick appended to; thaw and
// RestoreSnapshot build fresh states that have no record yet. A frozen
// DIMM is already a blob and is written straight into the frame; a spilled
// one's stored bytes are checked and copied through. The frame's DIMM
// order (Server.snapOrder) is kept sorted between snapshots too: DIMMs
// registered since merge in, a restore rebuilds it. The frame is byte for
// byte the one a full freeze-sort-encode walk writes — that walk is the
// oracle in snapshot_test.go.

// snapshotMagic versions the engine snapshot format. MFS3 records hold
// their events in the trace log form (trace.AppendLogEvents) and their
// fold state as first/last CE instants plus the classifier's thresholds
// and cell counts. MFS2, whose fold state also wrote every map and tally
// derived from those counts, and MFS1, whose blobs wrote address and bit
// fields for every event type, are refused by name — a spill directory or
// checkpoint written by such a binary must be emptied, not reread.
const snapshotMagic = "MFS3"

// frozenRec is one snapshot record: a DIMM and its frozen state.
type frozenRec struct {
	id trace.DIMMID
	fz *frozenDIMM
}

// spillDIMMKey names a frozen DIMM's record in a SpillStore.
func spillDIMMKey(id trace.DIMMID) string { return "dimm/" + id.String() }

// appendFrozenRec serializes one DIMM's frozen serving state.
func appendFrozenRec(w *trace.BinWriter, id trace.DIMMID, fz *frozenDIMM) {
	w.String(string(id.Platform))
	w.Varint(int64(id.Server))
	w.Varint(int64(id.Slot))
	w.String(fz.part.PartNumber)
	w.Varint(int64(fz.lastPred))
	w.Varint(int64(fz.lastAlarm))
	w.Bool(fz.alarmed)

	w.Varint(int64(fz.snap.Events))
	w.Varint(int64(fz.snap.CEs))
	w.Varint(int64(fz.snap.UEs))
	w.Varint(int64(fz.snap.Storms))
	w.Varint(int64(fz.snap.Horizon))
	w.Bool(fz.snap.HasCE)
	w.Bool(fz.snap.HasUE)
	w.Varint(int64(fz.snap.FirstCE))
	w.Varint(int64(fz.snap.FirstUE))
	w.Bool(fz.snap.Fold != nil)
	if fz.snap.Fold != nil {
		fz.snap.Fold.AppendBinary(w)
	}

	w.Uvarint(uint64(fz.events))
	w.Bytes(fz.blob)
}

// decodeFrozenRec reads one record written by appendFrozenRec.
func decodeFrozenRec(r *trace.BinReader) (trace.DIMMID, *frozenDIMM, error) {
	var id trace.DIMMID
	id.Platform = platform.ID(r.String())
	id.Server = int(r.Varint())
	id.Slot = int(r.Varint())
	partNumber := r.String()
	fz := &frozenDIMM{
		lastPred:  trace.Minutes(r.Varint()),
		lastAlarm: trace.Minutes(r.Varint()),
		alarmed:   r.Bool(),
	}
	fz.snap.Events = int(r.Varint())
	fz.snap.CEs = int(r.Varint())
	fz.snap.UEs = int(r.Varint())
	fz.snap.Storms = int(r.Varint())
	fz.snap.Horizon = trace.Minutes(r.Varint())
	fz.snap.HasCE = r.Bool()
	fz.snap.HasUE = r.Bool()
	fz.snap.FirstCE = trace.Minutes(r.Varint())
	fz.snap.FirstUE = trace.Minutes(r.Varint())
	if r.Bool() {
		fz.snap.Fold = features.DecodeFoldState(r)
	}
	events := r.Uvarint()
	fz.blob = r.Bytes()
	if err := r.Err(); err != nil {
		return id, nil, err
	}
	// trace.ReadLogEvents' bound, applied here so a record whose count
	// its blob cannot hold is refused at restore time, not at thaw.
	if events > uint64(len(fz.blob)/2) {
		return id, nil, fmt.Errorf("mlops: snapshot record for %s declares %d events in a %d-byte blob", id, events, len(fz.blob))
	}
	fz.events = int(events)
	// The blob aliases the frame it was read from; clip it so footprint()
	// charges this record its own bytes, not the rest of the frame.
	fz.blob = fz.blob[:len(fz.blob):len(fz.blob)]
	part, err := platform.PartByNumber(partNumber)
	if err != nil {
		return id, nil, fmt.Errorf("mlops: snapshot record for %s: %w", id, err)
	}
	fz.part = part
	fz.bytes = fz.footprint()
	return id, fz, nil
}

// Snapshot serializes the engine's full serving state into a new buffer;
// see AppendSnapshot.
func (s *Server) Snapshot() ([]byte, error) { return s.AppendSnapshot(nil) }

// AppendSnapshot appends the engine's full serving state to dst as one
// MFS3 frame, so a caller that checkpoints repeatedly can reuse one
// buffer. Only resident DIMMs that ingested since the previous snapshot
// are re-encoded; the rest of the frame is copied from kept, frozen or
// spilled records (see the file comment). The engine must be externally
// quiescent (no concurrent ingest or registration); every shard lock is
// held for the duration. The encoding is deterministic: records are in
// DIMM ID order and every nested codec writes sorted keys. On error dst's
// contents past its length are unspecified and nil is returned.
func (s *Server) AppendSnapshot(dst []byte) ([]byte, error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.settleSnapOrder()

	w := trace.BinWriter{Buf: slices.Grow(dst, s.snapSize)}
	w.Raw([]byte(snapshotMagic))
	w.Uvarint(uint64(len(s.snapOrder)))
	var reencoded int64
	for i := range s.snapOrder {
		ent := &s.snapOrder[i]
		id, st := ent.id, ent.st
		if st == nil || st.dropped {
			// Frozen when last seen, or evicted since: look again.
			sh := s.shardFor(id)
			st = sh.dimms[id]
			ent.st = st
			if st == nil {
				if err := s.appendFrozenLocked(&w, id, sh.frozen[id]); err != nil {
					return nil, err
				}
				continue
			}
		}
		if st.rec != nil {
			w.Raw(st.rec)
			continue
		}
		start := len(w.Buf)
		appendFrozenRec(&w, id, freezeDIMM(st))
		st.rec = make([]byte, len(w.Buf)-start)
		copy(st.rec, w.Buf[start:])
		reencoded++
		if s.MemoryBudget > 0 {
			// The kept record is serving state; the LRU is not touched — a
			// snapshot serves no one.
			nb := st.footprint()
			s.shardFor(id).resident += nb - st.bytes
			st.bytes = nb
		}
	}
	s.snapSize = len(w.Buf) - len(dst)
	s.snapRecords.Add(int64(len(s.snapOrder)))
	s.snapReencoded.Add(reencoded)
	return w.Buf, nil
}

// appendFrozenLocked writes a frozen DIMM's record: an in-memory one is
// already a blob and encodes straight into the frame; a spilled one's
// stored bytes are checked (readSpilled) and copied through.
func (s *Server) appendFrozenLocked(w *trace.BinWriter, id trace.DIMMID, fz *frozenDIMM) error {
	switch {
	case fz == nil:
		return fmt.Errorf("mlops: snapshot order lists %s, which has no state", id)
	case fz.spilled:
		rec, _, err := s.readSpilled(id)
		if err != nil {
			return err
		}
		w.Raw(rec)
		return nil
	}
	appendFrozenRec(w, id, fz)
	return nil
}

// snapEnt is one DIMM's place in the snapshot order. st caches the
// DIMM's live state so a snapshot of mostly-resident DIMMs hashes no
// keys; it is trusted until the state is dropped from its shard.
type snapEnt struct {
	id trace.DIMMID
	st *dimmState
}

// settleSnapOrder brings snapOrder up to date with the DIMM set: the few
// DIMMs registered since the last snapshot merge into the kept order; a
// restore since then (snapKept cleared) rebuilds it from the shard maps.
// Every shard lock held.
func (s *Server) settleSnapOrder() {
	var added []snapEnt
	kept := s.snapKept.Swap(true)
	if !kept {
		s.snapOrder = s.snapOrder[:0]
	}
	for _, sh := range s.shards {
		if kept {
			for _, id := range sh.added {
				added = append(added, snapEnt{id: id})
			}
		} else {
			for id, st := range sh.dimms {
				added = append(added, snapEnt{id, st})
			}
			for id := range sh.frozen {
				added = append(added, snapEnt{id: id})
			}
		}
		sh.added = sh.added[:0]
	}
	if len(added) == 0 {
		return
	}
	sortSlice(added, func(a, b snapEnt) bool { return a.id.Less(b.id) })
	// Merge from the back, in place: registration never repeats an ID that
	// has state, so the two runs are disjoint.
	old := s.snapOrder
	s.snapOrder = append(old, added...)
	for i, j, k := len(old)-1, len(added)-1, len(s.snapOrder)-1; j >= 0; k-- {
		if i >= 0 && added[j].id.Less(old[i].id) {
			s.snapOrder[k] = old[i]
			i--
		} else {
			s.snapOrder[k] = added[j]
			j--
		}
	}
}

// RestoreSnapshot replaces the engine's serving state with a snapshot.
// Every restored DIMM starts frozen and thaws on its next event; the
// registry and monitor are untouched.
func (s *Server) RestoreSnapshot(data []byte) error {
	r := trace.NewBinReader(data)
	switch magic := string(r.Raw(len(snapshotMagic))); magic {
	case snapshotMagic:
	case "MFS2", "MFS1":
		return fmt.Errorf("mlops: %s engine snapshot: written by an older binary, this one reads %s", magic, snapshotMagic)
	default:
		return fmt.Errorf("mlops: not a %s engine snapshot", snapshotMagic)
	}
	n := r.Uvarint()
	if n > uint64(r.Remaining())+1 {
		return fmt.Errorf("mlops: snapshot declares %d DIMMs in %d bytes", n, r.Remaining())
	}
	recs := make([]frozenRec, 0, n)
	for i := uint64(0); i < n; i++ {
		id, fz, err := decodeFrozenRec(r)
		if err != nil {
			return err
		}
		recs = append(recs, frozenRec{id, fz})
	}
	s.snapKept.Store(false)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dimms = map[trace.DIMMID]*dimmState{}
		sh.frozen = map[trace.DIMMID]*frozenDIMM{}
		sh.lru.Init()
		sh.resident = 0
		sh.mu.Unlock()
	}
	for _, rc := range recs {
		sh := s.shardFor(rc.id)
		sh.mu.Lock()
		sh.frozen[rc.id] = rc.fz
		if s.MemoryBudget > 0 {
			sh.resident += rc.fz.bytes
		}
		sh.mu.Unlock()
	}
	return nil
}
