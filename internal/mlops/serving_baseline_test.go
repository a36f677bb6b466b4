package mlops

import (
	"context"
	"fmt"
	"sort"

	"memfp/internal/ml/model"
	"memfp/internal/trace"
)

// ingestOne serves one event — a tick of one — and returns its alarm, nil
// when the production model does not fire.
func ingestOne(s *Server, e trace.Event) (*Alarm, error) {
	alarms, err := s.IngestBatch([]trace.Event{e})
	if len(alarms) == 0 {
		return nil, err
	}
	return &alarms[0], err
}

// ReplayBaseline is the pre-sharding replay path, preserved verbatim as
// the engine's independent equivalence oracle and benchmark baseline: it
// materializes the fleet's full event stream, globally sorts it, and
// serves one event at a time — a fresh registry lookup plus rehydration
// check and a from-scratch feature extraction per prediction, exactly
// what the sequential server did. Only the time-zero cooldown sentinel
// bug is fixed (matching the engine), so both paths answer identically.
//
// The baseline keeps its own serving state and never touches the sharded
// engine's logs or cursors; the receiver provides only the wiring
// (platform, feature store, registry, model name, knobs) and the
// monitor. Alarms are delivered to onAlarm in stream order.
func (s *Server) ReplayBaseline(ctx context.Context, st *trace.Store, onAlarm func(Alarm)) (int, error) {
	logs := map[trace.DIMMID]*trace.DIMMLog{}
	type alarmState struct {
		lastPred  trace.Minutes
		lastAlarm trace.Minutes
		alarmed   bool
	}
	states := map[trace.DIMMID]*alarmState{}
	var all []trace.Event
	for _, l := range st.DIMMs() {
		logs[l.ID] = &trace.DIMMLog{ID: l.ID, Part: l.Part}
		states[l.ID] = &alarmState{}
		all = append(all, l.Events...)
	}
	// Stable: equal-(Time, DIMM, Type) events keep their per-log order,
	// the order any order-preserving transport would deliver them in.
	sort.Stable(trace.ByTime(all))
	n := 0
	for _, e := range all {
		select {
		case <-ctx.Done():
			return n, ctx.Err()
		default:
		}
		l := logs[e.DIMM]
		l.Append(e)
		if s.monitor != nil {
			s.monitor.CountEvent(e)
		}
		if e.Type != trace.TypeCE {
			continue
		}
		as := states[e.DIMM]
		if e.Time-as.lastPred < s.PredictEvery {
			continue
		}
		as.lastPred = e.Time

		mv, err := s.Registry.Production(s.Model)
		if err != nil {
			return n, err
		}
		m, err := mv.ServingModel()
		if err != nil {
			return n, fmt.Errorf("mlops: rehydrate %s v%d: %w", mv.Name, mv.Version, err)
		}
		var score float64
		if ls, ok := m.(model.LogScorer); ok {
			score = ls.ScoreLog(l, e.Time)
		} else {
			// One row per call: the oracle never batches.
			score = m.ScoreBatch(model.Batch{X: [][]float64{s.Store.extractor.NewCursor(l).ExtractAt(e.Time)}})[0]
		}
		if s.monitor != nil {
			s.monitor.CountPrediction(score)
		}
		if score < mv.Threshold {
			continue
		}
		if as.alarmed && e.Time-as.lastAlarm < cooldown {
			continue
		}
		as.alarmed, as.lastAlarm = true, e.Time
		a := Alarm{Time: e.Time, DIMM: e.DIMM, Score: score,
			Model: fmt.Sprintf("%s-v%d", mv.Name, mv.Version)}
		if s.monitor != nil {
			s.monitor.CountAlarm(a)
		}
		n++
		if onAlarm != nil {
			onAlarm(a)
		}
	}
	return n, nil
}
