package mlops

import (
	"fmt"
	"sort"

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

// snapshotMagic versions the engine snapshot format. MFS2 records hold
// their events in the trace log form (trace.AppendLogEvents); MFS1, whose
// blobs wrote address and bit fields for every event type, is refused by
// name — a spill directory or checkpoint written by an MFS1 binary must
// be emptied, not reread.
const (
	snapshotMagic    = "MFS2"
	snapshotMagicOld = "MFS1"
)

// frozenRec is one snapshot record: a DIMM and its frozen state.
type frozenRec struct {
	id trace.DIMMID
	fz *frozenDIMM
}

// spillDIMMKey names a frozen DIMM's record in a SpillStore.
func spillDIMMKey(id trace.DIMMID) string { return "dimm/" + id.String() }

// appendFrozenRec serializes one DIMM's frozen serving state. Returns an
// error when the fold state is of a type the codec does not know.
func appendFrozenRec(w *trace.BinWriter, id trace.DIMMID, fz *frozenDIMM) error {
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
	switch fold := fz.snap.Fold.(type) {
	case nil:
		w.Bool(false)
	case *features.FoldState:
		w.Bool(true)
		fold.AppendBinary(w)
	default:
		return fmt.Errorf("mlops: cannot serialize fold state of type %T for %s", fold, id)
	}

	w.Uvarint(uint64(fz.events))
	w.Bytes(fz.blob)
	return nil
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
	part, err := platform.PartByNumber(partNumber)
	if err != nil {
		return id, nil, fmt.Errorf("mlops: snapshot record for %s: %w", id, err)
	}
	fz.part = part
	fz.bytes = fz.footprint()
	return id, fz, nil
}

// Snapshot serializes the engine's full serving state. The engine must
// be externally quiescent (no concurrent ingest); shard locks are taken
// per shard. The encoding is deterministic: records are sorted by DIMM
// ID and every nested codec writes sorted keys.
func (s *Server) Snapshot() ([]byte, error) {
	var recs []frozenRec
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, st := range sh.dimms {
			recs = append(recs, frozenRec{id, freezeDIMM(st)})
		}
		for id, fz := range sh.frozen {
			if fz.spilled {
				real, err := s.unspillLocked(id, fz, false)
				if err != nil {
					sh.mu.Unlock()
					return nil, err
				}
				fz = real
			}
			recs = append(recs, frozenRec{id, fz})
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id.Less(recs[j].id) })

	w := trace.BinWriter{Buf: make([]byte, 0, 1024)}
	w.Raw([]byte(snapshotMagic))
	w.Uvarint(uint64(len(recs)))
	for _, rc := range recs {
		if err := appendFrozenRec(&w, rc.id, rc.fz); err != nil {
			return nil, err
		}
	}
	return w.Buf, nil
}

// RestoreSnapshot replaces the engine's serving state with a snapshot.
// Every restored DIMM starts frozen and thaws on its next event; the
// registry, monitor and pause state are untouched.
func (s *Server) RestoreSnapshot(data []byte) error {
	r := trace.NewBinReader(data)
	switch magic := r.Raw(len(snapshotMagic)); {
	case string(magic) == snapshotMagicOld:
		return fmt.Errorf("mlops: %s engine snapshot: written by an older binary, this one reads %s", snapshotMagicOld, snapshotMagic)
	case r.Err() != nil || string(magic) != snapshotMagic:
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
