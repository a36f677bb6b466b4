package mlops

import (
	"context"

	"memfp/internal/trace"
)

// ReplayStream drains a lazily produced fleet through the engine without
// ever materializing it: next yields one finished per-DIMM log at a time
// (the shape faultsim.Stream produces) until it reports done or an error.
// Whole logs are gathered into ticks of at least replayTick events and
// served through IngestBatch in DIMM-major order — per-DIMM serving state
// never reads another DIMM's, so only per-DIMM order is observable — and
// each DIMM's state is released as soon as its tick has been served, so
// peak resident state is one tick's DIMMs regardless of fleet size. Each
// DIMM must be yielded at most once — a second log for the same identity
// would serve against a fresh history.
//
// Alarms are delivered to onAlarm in (Time, DIMM) order once the producer
// has drained, byte-identical to Replay over the materialized store for
// every shard count (pinned by TestReplayStreamMatchesReplay). The return
// value counts delivered alarms. On error (producer failure or ctx
// cancellation) the logs already gathered are still served — no DIMM is
// left registered but unserved — and every alarm fired is merged and
// delivered ahead of the error.
func (s *Server) ReplayStream(ctx context.Context, next func() (*trace.DIMMLog, bool, error),
	onAlarm func(Alarm)) (int, error) {
	var (
		tick   []trace.Event
		ids    []trace.DIMMID
		alarms [][]Alarm
	)
	serve := func() error {
		as, err := s.IngestBatch(tick)
		alarms = append(alarms, as)
		for _, id := range ids {
			sh := s.shardFor(id)
			sh.mu.Lock()
			s.releaseLocked(sh, id) // the stream is final: nothing more to predict
			sh.mu.Unlock()
		}
		tick, ids = tick[:0], ids[:0]
		return err
	}
	var err error
	for err == nil {
		if err = ctx.Err(); err != nil {
			break
		}
		l, ok, nerr := next()
		if nerr != nil || !ok {
			err = nerr
			break
		}
		s.RegisterDIMM(l.ID, l.Part)
		tick = append(tick, timeSorted(l).Events...)
		ids = append(ids, l.ID)
		if len(tick) >= replayTick {
			err = serve()
		}
	}
	if len(ids) > 0 {
		if serr := serve(); err == nil {
			err = serr
		}
	}
	n := 0
	for _, a := range MergeAlarms(alarms) {
		if onAlarm != nil {
			onAlarm(a)
		}
		n++
	}
	return n, err
}
