package mlops

import (
	"bytes"
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
// encoded for it (dimmState.rec) and ingestLocked marks it stale right
// after appending an event to the DIMM's log. That one place is enough:
// every field a record serializes — the retained events and their order,
// the prediction throttle, the alarm cooldown, the compaction horizon and
// the fold state compaction rewrites — changes only while serving a tick,
// under the shard lock, for a DIMM that tick appended to; thaw and
// RestoreSnapshot build fresh states that have no record yet. A frozen
// DIMM is already a blob and is written straight into the frame; a spilled
// one's stored bytes are checked and copied through. The frame's DIMM
// order (Server.snapOrder) is kept sorted between snapshots too: DIMMs
// registered since merge in, a restore rebuilds it. The frame is byte for
// byte the one a full freeze-sort-encode walk writes — that walk is the
// oracle in snapshot_test.go. A delta (AppendDelta) is the same walk
// writing only the stale records, and MergeSnapshot folds a full frame and
// the deltas after it into the last one's full frame.

// snapshotMagic versions the engine snapshot format. MFS4 records hold
// their events in the trace log form (trace.AppendLogEventsAfter) and their
// fold state as first/last CE instants plus the classifier's cell counts.
// MFS3, whose fold state also wrote the six §V thresholds, MFS2, whose fold
// state also wrote every map and tally derived from the counts, and MFS1,
// whose blobs wrote address and bit fields for every event type, are
// refused by name, as are MFS3's MFD1 deltas — a spill directory or
// checkpoint written by such a binary must be emptied, not reread.
const snapshotMagic = "MFS4"

// deltaMagic versions AppendDelta's frame: MFS4 records to the frame's
// end, no count and no tombstones — between restores an engine's DIMM set
// only grows, since nothing unregisters a DIMM.
const deltaMagic = "MFD2"

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
// MFS4 frame, so a caller that checkpoints repeatedly can reuse one
// buffer. Only resident DIMMs that ingested since the previous snapshot
// are re-encoded; the rest of the frame is copied from kept, frozen or
// spilled records (see the file comment). The engine must be externally
// quiescent (no concurrent ingest or registration); every shard lock is
// held for the duration. The encoding is deterministic: records are in
// DIMM ID order and every nested codec writes sorted keys. On error dst's
// contents past its length are unspecified and nil is returned.
func (s *Server) AppendSnapshot(dst []byte) ([]byte, error) { return s.appendFrame(dst, false) }

// AppendDelta appends an MFD2 frame to dst: AppendSnapshot's records of
// the DIMMs that ingested or registered since the previous frame. After an
// error the next frame must be a full one.
func (s *Server) AppendDelta(dst []byte) ([]byte, error) { return s.appendFrame(dst, true) }

// appendFrame is AppendSnapshot's walk; a delta skips unchanged records.
func (s *Server) appendFrame(dst []byte, delta bool) ([]byte, error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.settleSnapOrder()

	w := trace.BinWriter{Buf: slices.Grow(dst, s.snapSize)}
	if delta {
		w.Raw([]byte(deltaMagic))
	} else {
		w.Raw([]byte(snapshotMagic))
		w.Uvarint(uint64(len(s.snapOrder)))
	}
	var written, reencoded int64
	for i := range s.snapOrder {
		ent := &s.snapOrder[i]
		id, st := ent.id, ent.st
		if st == nil || st.dropped {
			// Evicted or thawed since last seen: look again.
			fz := ent.fz
			if fz == nil || fz.thawed {
				sh := s.shardFor(id)
				st, fz = sh.dimms[id], sh.frozen[id]
				ent.st, ent.fz = st, fz
			}
			if st == nil {
				if fz == nil {
					return nil, fmt.Errorf("mlops: snapshot order lists %s, which has no state", id)
				}
				if delta && !fz.dirty {
					continue
				}
				if err := s.appendFrozenLocked(&w, id, fz); err != nil {
					return nil, err
				}
				fz.dirty = false
				written++
				continue
			}
		}
		if st.rec != nil && !st.dirty {
			if !delta {
				w.Raw(st.rec)
				written++
			}
			continue
		}
		start := len(w.Buf)
		fz := freezeDIMM(st, s.recBuf[:0])
		s.recBuf = fz.blob
		appendFrozenRec(&w, id, fz)
		st.rec = append(st.rec[:0], w.Buf[start:]...) // its old bytes are copied out
		st.recBlob, st.recEvents, st.dirty = st.rec[len(st.rec)-len(fz.blob):], fz.events, false
		written++
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
	s.snapRecords.Add(written)
	s.snapReencoded.Add(reencoded)
	return w.Buf, nil
}

// appendFrozenLocked writes a frozen DIMM's record: an in-memory one is
// already a blob and encodes straight into the frame; a spilled one's
// stored bytes are checked (readSpilled) and copied through.
func (s *Server) appendFrozenLocked(w *trace.BinWriter, id trace.DIMMID, fz *frozenDIMM) error {
	if !fz.spilled {
		appendFrozenRec(w, id, fz)
		return nil
	}
	rec, _, err := s.readSpilled(id)
	w.Raw(rec)
	return err
}

// snapEnt is one DIMM's place in the snapshot order. st and fz cache the
// DIMM's live or frozen state so a snapshot hashes no keys for DIMMs that
// stayed put; each is trusted until it leaves its shard's map
// (dimmState.dropped, frozenDIMM.thawed).
type snapEnt struct {
	id trace.DIMMID
	st *dimmState
	fz *frozenDIMM
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
				added = append(added, snapEnt{id: id, st: st})
			}
			for id, fz := range sh.frozen {
				added = append(added, snapEnt{id: id, fz: fz})
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
	recs, err := readFrame(data, snapshotMagic)
	if err != nil {
		return err
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

// readFrame decodes the records of a frame with the given magic,
// refusing another by name.
func readFrame(data []byte, magic string) ([]frozenRec, error) {
	r := trace.NewBinReader(data)
	switch got := string(r.Raw(len(magic))); {
	case got == magic:
	case got == "MFS3" || got == "MFD1" || got == "MFS2" || got == "MFS1":
		return nil, fmt.Errorf("mlops: %s engine snapshot: written by an older binary, this one reads %s and %s", got, snapshotMagic, deltaMagic)
	case got == deltaMagic:
		return nil, fmt.Errorf("mlops: %s snapshot delta where a full %s frame belongs: merge its chain first", got, magic)
	default:
		return nil, fmt.Errorf("mlops: not a %s engine snapshot", magic)
	}
	var n uint64
	if magic == snapshotMagic {
		if n = r.Uvarint(); n > uint64(r.Remaining())+1 {
			return nil, fmt.Errorf("mlops: snapshot declares %d DIMMs in %d bytes", n, r.Remaining())
		}
	}
	recs := make([]frozenRec, 0, n)
	for uint64(len(recs)) < n || (magic == deltaMagic && r.Remaining() > 0) {
		id, fz, err := decodeFrozenRec(r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, frozenRec{id, fz})
	}
	return recs, nil
}

// IsSnapshotDelta reports whether frame is an AppendDelta frame.
func IsSnapshotDelta(frame []byte) bool { return bytes.HasPrefix(frame, []byte(deltaMagic)) }

// MergeSnapshot folds a full frame and the deltas its engine took after
// it, oldest first, into the frame AppendSnapshot would have written in
// place of the last: it restores them into a scratch engine and snapshots it.
func MergeSnapshot(base []byte, deltas ...[]byte) ([]byte, error) {
	s := NewShardedServer("", nil, nil, "", nil, 1)
	if err := s.RestoreSnapshot(base); err != nil {
		return nil, err
	}
	for _, d := range deltas {
		recs, err := readFrame(d, deltaMagic)
		if err != nil {
			return nil, err
		}
		for _, rc := range recs {
			s.shards[0].frozen[rc.id] = rc.fz
		}
	}
	return s.Snapshot()
}
