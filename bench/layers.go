package main

import (
	"fmt"
	"time"

	"memfp/internal/features"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// Layers below the HTTP boundary cannot be wrapped from outside, so the
// traced pass times them by calling them directly on the same inputs
// the topology saw. (The batch feature transform is timed in newFixture,
// where the training fleet lives.)

// measureLoad times model.Load on the trained artifact.
func (f *fixture) measureLoad() (float64, error) {
	t0 := time.Now()
	_, err := model.Load(f.art.data)
	if err != nil {
		return 0, fmt.Errorf("load artifact: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// codecLayer is the MFE1 event codec over every tick of the stream.
type codecLayer struct {
	decodeS       float64
	bytesPerEvent float64
}

func (f *fixture) measureCodec() (codecLayer, error) {
	var cl codecLayer
	bytes := 0
	t0 := time.Now()
	for i, tk := range f.ticks {
		evs, _, err := trace.DecodeEventFrame(tk.frame)
		if err != nil || len(evs) != tk.hi-tk.lo {
			return cl, fmt.Errorf("decode tick %d: %d events, err %v", i, len(evs), err)
		}
		bytes += len(tk.frame)
	}
	cl.decodeS = time.Since(t0).Seconds()
	cl.bytesPerEvent = float64(bytes) / float64(len(f.events))
	return cl, nil
}

// walkLayer is the engine's inner loop restated from outside: per-DIMM
// log appends, throttled feature extraction, and ScoreBatch over the
// groups the engine forms.
type walkLayer struct {
	appendS      float64
	extractS     [2]float64
	extractCalls int
	scoreS       [2]float64
	scoreCalls   int
	scoreRows    int
	batchRows    [2][]float64 // rows per ScoreBatch call, per phase
}

// measureAppend rebuilds every DIMM's log with Store.Register +
// DIMMLog.Append in stream order and times the appends alone: the log
// pointers are resolved beforehand, so no map lookup is charged.
func (f *fixture) measureAppend() (float64, error) {
	store := trace.NewStore()
	for _, d := range f.dimms {
		if _, err := store.Register(d.id, d.part); err != nil {
			return 0, err
		}
	}
	logs := make([]*trace.DIMMLog, len(f.events))
	for i, e := range f.events {
		logs[i] = store.Get(e.DIMM)
	}
	t0 := time.Now()
	for i, e := range f.events {
		logs[i].Append(e)
	}
	return time.Since(t0).Seconds(), nil
}

// walk replays the stream tick by tick. At every CE at least
// predictEvery after its DIMM's previous prediction it extracts the
// feature vector through a ServeCursor, as the engine does; at the end of
// each tick it scores the vectors through the loaded model in the
// workload's per-tick groups. It restates the engine's throttle and may
// not drift from it: the caller compares extractCalls with the engine's
// prediction count.
func (f *fixture) walk() (walkLayer, error) {
	var wl walkLayer
	var err error
	if wl.appendS, err = f.measureAppend(); err != nil {
		return wl, err
	}
	mdl, err := model.Load(f.art.data)
	if err != nil {
		return wl, fmt.Errorf("load artifact: %w", err)
	}
	fs := mlops.NewFeatureStore()
	predictEvery := mlops.NewShardedServer(f.w.Platform, fs, nil, "", nil, 1).PredictEvery

	type dimm struct {
		log      *trace.DIMMLog
		cursor   *features.ServeCursor
		lastPred trace.Minutes
		group    int
	}
	store := trace.NewStore()
	dimms := map[trace.DIMMID]*dimm{}
	for _, d := range f.dimms {
		log, err := store.Register(d.id, d.part)
		if err != nil {
			return wl, err
		}
		dimms[d.id] = &dimm{log: log, group: f.w.group(d.id)}
	}

	batches := make([]model.Batch, f.w.groups())
	for i, tk := range f.ticks {
		phase := f.phase(i)
		for g := range batches {
			batches[g] = model.Batch{}
		}
		for _, e := range f.events[tk.lo:tk.hi] {
			d := dimms[e.DIMM]
			d.log.Append(e)
			if e.Type != trace.TypeCE || e.Time-d.lastPred < predictEvery {
				continue
			}
			d.lastPred = e.Time
			if d.cursor == nil {
				d.cursor = fs.NewServeCursor(d.log)
			}
			t0 := time.Now()
			vec := d.cursor.ExtractAt(e.Time)
			wl.extractS[phase] += time.Since(t0).Seconds()
			wl.extractCalls++
			b := &batches[d.group]
			b.X = append(b.X, vec)
			b.DIMMs = append(b.DIMMs, e.DIMM)
			b.Times = append(b.Times, e.Time)
		}
		for _, b := range batches {
			if b.Len() == 0 {
				continue
			}
			t0 := time.Now()
			scores := mdl.ScoreBatch(b)
			wl.scoreS[phase] += time.Since(t0).Seconds()
			if len(scores) != b.Len() {
				return wl, fmt.Errorf("walk tick %d: %d scores for %d rows", i, len(scores), b.Len())
			}
			wl.scoreCalls++
			wl.scoreRows += b.Len()
			wl.batchRows[phase] = append(wl.batchRows[phase], float64(b.Len()))
		}
	}
	return wl, nil
}

// spanLayer is what the spans and boundary counts of one traced
// repetition say about the layers above the engine.
type spanLayer struct {
	tickS     [2]float64 // root spans
	cpIngestS [2]float64
	cpIngestN [2]int
	cpFlushS  [2]float64
	nodeS     [2]float64
	nodeN     [2]int
	nodeBusy  []float64 // node.ingest2 seconds per node index
	ckptS     float64
	ckptN     int
	selfS     map[string]float64 // self time per span name
}

func summarizeSpans(spans []span, nodes int) spanLayer {
	sl := spanLayer{nodeBusy: make([]float64, nodes), selfS: map[string]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		d := s.seconds()
		sl.selfS[s.Name] += float64(self[s.ID]) / 1e9
		switch s.Name {
		case spanTick:
			sl.tickS[s.Phase] += d
		case spanCPIngest:
			sl.cpIngestS[s.Phase] += d
			sl.cpIngestN[s.Phase]++
		case spanCPFlush:
			sl.cpFlushS[s.Phase] += d
		case spanNodeIngest:
			sl.nodeS[s.Phase] += d
			sl.nodeN[s.Phase]++
			sl.nodeBusy[s.Node] += d
		case spanNodeCkpt:
			sl.ckptS += d
			sl.ckptN++
		}
	}
	return sl
}

// nodeTicks counts, per phase, the (tick, node) pairs that carry at
// least one event — the useful deliveries pipelining spreads over
// node.ingest2 round trips.
func (f *fixture) nodeTicks() [2]int {
	var out [2]int
	if f.w.Nodes == 0 {
		return out
	}
	seen := make([]bool, f.w.Nodes)
	for i, tk := range f.ticks {
		phase := f.phase(i)
		clear(seen)
		for _, e := range f.events[tk.lo:tk.hi] {
			if n := f.w.group(e.DIMM) / f.w.Shards; !seen[n] {
				seen[n] = true
				out[phase]++
			}
		}
	}
	return out
}
