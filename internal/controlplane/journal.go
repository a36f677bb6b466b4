package controlplane

import "memfp/internal/mlops"

// tickRec is one journaled ingest batch.
type tickRec struct {
	frames  [][]byte        // per node index: its events as the MFE1 frame it is sent
	res     [][]mlops.Alarm // per node index, until emitted
	served  []bool          // per node index
	version int             // production model version pinned at append
	size    int64           // frame bytes
}

// newTickRec builds the record for one partitioned, encoded batch. A node
// with no events in the tick has no frame and nothing to serve: it counts
// as served from the start, so emission never waits on an empty delivery.
func newTickRec(frames [][]byte, version int) *tickRec {
	t := &tickRec{
		frames:  frames,
		res:     make([][]mlops.Alarm, len(frames)),
		served:  make([]bool, len(frames)),
		version: version,
	}
	for i, fr := range frames {
		t.served[i] = len(fr) == 0
		t.size += int64(len(fr))
	}
	return t
}

// journal is the control plane's tick log: records addressed by an
// absolute index that survives truncation of the prefix, and the
// emission cursor that walks them in order. It is a plain data structure
// — no lock, no HTTP, no spill store; Server guards it with its mutex and
// decides when to truncate.
type journal struct {
	recs        []*tickRec // recs[k] holds tick base+k
	base        int        // first index still in memory
	high        int        // high-water mark of len(recs)
	nextEmit    int        // index of the next unemitted tick
	truncations int
	truncated   int   // ticks dropped by truncateBelow
	bytes       int64 // frame bytes of the records in memory
}

// append adds a tick at index end().
func (j *journal) append(t *tickRec) {
	j.recs = append(j.recs, t)
	j.bytes += t.size
	if d := len(j.recs); d > j.high {
		j.high = d
	}
}

// end returns one past the last index.
func (j *journal) end() int { return j.base + len(j.recs) }

// pending counts the ticks appended but not yet emitted.
func (j *journal) pending() int { return j.end() - j.nextEmit }

// at returns the record at index i, or nil when i was truncated.
func (j *journal) at(i int) *tickRec {
	if i < j.base {
		return nil
	}
	return j.recs[i-j.base]
}

// serve records that node served tick i with these alarms. Alarms for a
// tick already emitted (a rejoined node replaying the suffix past its
// checkpoint) are duplicates and dropped, as is everything about a tick
// truncated behind the sender.
func (j *journal) serve(i, node int, alarms []mlops.Alarm) {
	t := j.at(i)
	if t == nil {
		return
	}
	if i >= j.nextEmit {
		t.res[node] = alarms
	}
	t.served[node] = true
}

// nextReady returns the tick at the emission cursor and moves the cursor
// past it, or nil when that tick still waits on a node (or nothing is
// pending): ticks emit strictly in index order.
func (j *journal) nextReady() *tickRec {
	if j.nextEmit >= j.end() {
		return nil
	}
	t := j.at(j.nextEmit)
	for _, sv := range t.served {
		if !sv {
			return nil
		}
	}
	j.nextEmit++
	return t
}

// truncateBelow drops the records below low — clamped to the emission
// cursor, so an unemitted tick is never dropped. The survivors move to a
// fresh slice so the prefix's frame memory is actually released.
func (j *journal) truncateBelow(low int) {
	if low > j.nextEmit {
		low = j.nextEmit
	}
	if low <= j.base {
		return
	}
	for _, t := range j.recs[:low-j.base] {
		j.bytes -= t.size
	}
	j.truncated += low - j.base
	j.recs = append([]*tickRec(nil), j.recs[low-j.base:]...)
	j.base = low
	j.truncations++
}

// info reports depth and truncation counters (SpillBytes is the
// server's to fill).
func (j *journal) info() JournalInfo {
	return JournalInfo{
		Depth:          len(j.recs),
		DepthHighWater: j.high,
		Base:           j.base,
		Truncations:    j.truncations,
		TruncatedTicks: j.truncated,
		Bytes:          j.bytes,
	}
}
