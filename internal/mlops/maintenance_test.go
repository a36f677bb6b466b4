package mlops

import (
	"runtime"
	"sync"
	"testing"

	"memfp/internal/eval"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// fleetStream flattens the fixture store into one time-ordered stream.
func fleetStream(t *testing.T) ([]trace.Event, *Pipeline) {
	t.Helper()
	pipe, res := trainedPipeline(t)
	var stream []trace.Event
	for _, l := range res.Store.DIMMs() {
		stream = append(stream, l.Events...)
	}
	sortSlice(stream, func(a, b trace.Event) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.DIMM != b.DIMM {
			return a.DIMM.Less(b.DIMM)
		}
		return a.Type < b.Type
	})
	return stream, pipe
}

func freshServer(t *testing.T, pipe *Pipeline, shards int) *Server {
	t.Helper()
	_, res := trainedPipeline(t)
	s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
	for _, l := range res.Store.DIMMs() {
		s.RegisterDIMM(l.ID, l.Part)
	}
	return s
}

// TestPauseResumeMatchesUninterrupted drives the same stream through an
// engine that takes a maintenance window mid-stream and one that does
// not: the union of alarms must be identical — pausing defers serving,
// it never changes decisions. Covered for batch delivery, per-event
// delivery (the Ingest pause-bypass regression), and a concurrent
// re-pause race against the Resume drain (the front-requeue regression).
func TestPauseResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	stream, pipe := fleetStream(t)

	straight := freshServer(t, pipe, 4)
	var want []Alarm
	for lo := 0; lo < len(stream); lo += 1024 {
		hi := min(lo+1024, len(stream))
		as, err := straight.IngestBatch(stream[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, as...)
	}
	if len(want) == 0 {
		t.Fatal("stream emitted no alarms; fixture proves nothing")
	}
	compare := func(t *testing.T, got []Alarm) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("paused run emitted %d alarms, uninterrupted %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("alarm %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}

	t.Run("batch", func(t *testing.T) {
		paused := freshServer(t, pipe, 4)
		var got []Alarm
		pauseAt, resumeAt := len(stream)/3, 2*len(stream)/3
		for lo := 0; lo < len(stream); lo += 1024 {
			hi := min(lo+1024, len(stream))
			if lo <= pauseAt && pauseAt < hi {
				paused.Pause()
				if !paused.Paused() {
					t.Fatal("Paused() false after Pause")
				}
			}
			if lo <= resumeAt && resumeAt < hi {
				if paused.HeldEvents() == 0 {
					t.Fatal("maintenance window held no events; test proves nothing")
				}
				as, err := paused.Resume()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, as...)
			}
			as, err := paused.IngestBatch(stream[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, as...)
		}
		compare(t, got)
	})

	// Per-event delivery: Ingest must honor the maintenance window like
	// IngestBatch does (regression: Ingest used to serve straight through
	// a pause).
	t.Run("per-event", func(t *testing.T) {
		paused := freshServer(t, pipe, 4)
		var got []Alarm
		pauseAt, resumeAt := len(stream)/3, 2*len(stream)/3
		for i, e := range stream {
			if i == pauseAt {
				paused.Pause()
			}
			if i == resumeAt {
				if paused.HeldEvents() == 0 {
					t.Fatal("per-event pause held no events (Ingest bypassed the window)")
				}
				as, err := paused.Resume()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, as...)
			}
			a, err := ingestOne(paused, e)
			if err != nil {
				t.Fatal(err)
			}
			if a != nil {
				got = append(got, *a)
			}
		}
		compare(t, got)
	})

	// Concurrent re-pause race: one goroutine ingests and periodically
	// resumes; another keeps slamming Pause. A Pause landing between
	// Resume's unpause and its drain forces the drained events back into
	// the hold queue — at the front (regression: they used to re-queue
	// behind newer arrivals, scrambling order). The serving decisions are
	// pure functions of per-DIMM event order, so the alarm set must still
	// be byte-identical.
	t.Run("concurrent-repause", func(t *testing.T) {
		paused := freshServer(t, pipe, 4)
		done := make(chan struct{})
		var pauserWG sync.WaitGroup
		pauserWG.Add(1)
		go func() {
			defer pauserWG.Done()
			for {
				select {
				case <-done:
					return
				default:
					paused.Pause()
					runtime.Gosched()
				}
			}
		}()
		var got []Alarm
		for i, e := range stream {
			a, err := ingestOne(paused, e)
			if err != nil {
				t.Fatal(err)
			}
			if a != nil {
				got = append(got, *a)
			}
			if i%777 == 0 {
				as, err := paused.Resume()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, as...)
			}
		}
		close(done)
		pauserWG.Wait()
		for paused.HeldEvents() > 0 || paused.Paused() {
			as, err := paused.Resume()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, as...)
		}
		// Drain interleavings shuffle where alarms are *returned*, never
		// which alarms fire; compare as a sorted stream.
		sortSlice(got, func(a, b Alarm) bool {
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			return a.DIMM.Less(b.DIMM)
		})
		compare(t, got)
	})
}

// TestResumeRequeuesAtFront pins the drain-vs-pause ordering white-box: a
// Resume drain that loses the race to a new Pause must put the drained
// events back ahead of anything that arrived after them.
func TestResumeRequeuesAtFront(t *testing.T) {
	reg := NewRegistry()
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	id := trace.DIMMID{Platform: platform.Purley, Server: 1, Slot: 1}
	mk := func(tm trace.Minutes) trace.Event {
		return trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}
	}
	s.Pause()
	for _, tm := range []trace.Minutes{10, 20, 30} {
		if _, err := ingestOne(s, mk(tm)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a drain (of events that arrived before the held ones)
	// racing the still-active pause: it must land at the front.
	if as, err := s.ingestBatch([]trace.Event{mk(1), mk(2)}, true); err != nil || as != nil {
		t.Fatalf("racing drain served through the pause: alarms=%v err=%v", as, err)
	}
	s.pauseMu.Lock()
	times := make([]trace.Minutes, len(s.held))
	for i, e := range s.held {
		times[i] = e.Time
	}
	s.pauseMu.Unlock()
	wantOrder := []trace.Minutes{1, 2, 10, 20, 30}
	if len(times) != len(wantOrder) {
		t.Fatalf("held %v, want %v", times, wantOrder)
	}
	for i := range wantOrder {
		if times[i] != wantOrder[i] {
			t.Fatalf("held order %v, want %v (drained events must re-queue at the front)", times, wantOrder)
		}
	}
}

// TestTransientRegistryErrorPreservesThrottle pins the throttle-advance
// ordering: a prediction opportunity that dies on a registry/rehydration
// error must stay available — the next event retries instead of finding
// the throttle already advanced by the failed attempt.
func TestTransientRegistryErrorPreservesThrottle(t *testing.T) {
	reg := NewRegistry()
	s := NewShardedServer(platform.Purley, NewFeatureStore(), reg, "m", nil, 2)
	part, err := platform.PartByNumber("A4-2666-32")
	if err != nil {
		t.Fatal(err)
	}
	id := trace.DIMMID{Platform: platform.Purley, Server: 2, Slot: 3}
	s.RegisterDIMM(id, part)
	mk := func(tm trace.Minutes) trace.Event {
		return trace.Event{Time: tm, Type: trace.TypeCE, DIMM: id}
	}
	// Prediction due at minute 10, but no production version exists yet —
	// the transient failure mode of a registry mid-promotion.
	if _, err := ingestOne(s, mk(10)); err == nil {
		t.Fatal("expected a registry error while no production version exists")
	}
	// The registry recovers.
	always := func(x []float64) float64 { return 1.0 }
	registerFunc(t, reg, "m", always, eval.Metrics{Precision: 1, F1: 1}, 0.5)
	if err := reg.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	// Minute 12 is within PredictEvery of the failed attempt: only an
	// unconsumed throttle lets it predict (and alarm).
	a, err := ingestOne(s, mk(12))
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("failed prediction attempt consumed the throttle (lastPred advanced before production())")
	}
}

// TestResumeEmptyIsNoop covers the edge cases: resuming an engine that
// never paused, and a pause window with no traffic.
func TestResumeEmptyIsNoop(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	_, pipe := fleetStream(t)
	s := freshServer(t, pipe, 2)
	if as, err := s.Resume(); err != nil || as != nil {
		t.Fatalf("Resume on never-paused engine: alarms=%v err=%v", as, err)
	}
	s.Pause()
	if as, err := s.Resume(); err != nil || as != nil {
		t.Fatalf("Resume after traffic-free pause: alarms=%v err=%v", as, err)
	}
	if s.Paused() {
		t.Fatal("engine still paused after Resume")
	}
}

// TestReplaceDIMMResetsState pins hot-swap semantics: after ReplaceDIMM
// the slot serves a fresh module — history, throttle and cooldown state
// gone — so an event pattern that was cooldown-suppressed on the old
// module can alarm again on the new one.
func TestReplaceDIMMResetsState(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	stream, pipe := fleetStream(t)
	s := freshServer(t, pipe, 4)
	alarms, err := s.IngestBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("stream emitted no alarms; fixture proves nothing")
	}
	id := alarms[0].DIMM
	sh := s.shardFor(id)
	sh.mu.Lock()
	oldLen := len(sh.dimms[id].log.Events)
	part := sh.dimms[id].log.Part
	sh.mu.Unlock()
	if oldLen == 0 {
		t.Fatal("alarmed DIMM has no history")
	}

	s.ReplaceDIMM(id, part)
	sh.mu.Lock()
	st := sh.dimms[id]
	if len(st.log.Events) != 0 || st.cursor != nil || st.alarmed || st.lastPred != 0 {
		sh.mu.Unlock()
		t.Fatalf("ReplaceDIMM left state behind: events=%d cursor=%v alarmed=%v lastPred=%v",
			len(st.log.Events), st.cursor != nil, st.alarmed, st.lastPred)
	}
	sh.mu.Unlock()
}

// TestRegistryRollback walks a promote → promote → rollback cycle and
// checks the epoch advances so serving caches re-resolve.
func TestRegistryRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	_, res := trainedPipeline(t)
	pipe := NewPipeline(fixturePipe.Platform)
	pipe.Seed = 31
	if _, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day); err != nil {
		t.Fatal(err)
	}
	reg := pipe.Registry
	if _, err := reg.Rollback(pipe.ModelName); err == nil {
		t.Fatal("Rollback with a single version should error")
	}
	v1, err := reg.Production(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	// Force a second promotion regardless of the gate.
	pipe.Seed = 32
	tr, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Promoted {
		if err := reg.Promote(pipe.ModelName, tr.Version.Version); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Epoch()
	back, err := reg.Rollback(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != v1.Version {
		t.Fatalf("rolled back to v%d, want v%d", back.Version, v1.Version)
	}
	cur, err := reg.Production(pipe.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != v1.Version || reg.Epoch() == before {
		t.Fatalf("production v%d epoch-moved=%v, want v%d with epoch bump",
			cur.Version, reg.Epoch() != before, v1.Version)
	}
}
