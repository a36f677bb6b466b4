package mlops

import (
	"context"
	"testing"

	"memfp/internal/faultsim"
	"memfp/internal/features"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// tinyBudget is small enough to force constant compaction and eviction
// churn on the test fixture while still being divisible across 16 shards.
const tinyBudget = 256 << 10

// TestBoundedReplayMatchesUnbounded is the tentpole equivalence gate: a
// replay under a tight memory budget — with log compaction and idle-DIMM
// eviction constantly active — must emit the byte-identical alarm stream
// of the unbounded engine, at every shard count.
func TestBoundedReplayMatchesUnbounded(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, res := trainedPipeline(t)
	want := collectReplay(t, pipe, res, 1)
	if len(want) == 0 {
		t.Fatal("unbounded replay emitted no alarms; fixture proves nothing")
	}
	for _, shards := range []int{1, 4, 16} {
		s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, shards)
		s.MemoryBudget = tinyBudget
		got := ingestStore(t, s, res.Store)
		ms := s.MemoryStats()
		if ms.Compactions == 0 || ms.Evictions == 0 || ms.Rehydrations == 0 {
			t.Fatalf("shards=%d: budget never exercised (compactions=%d evictions=%d rehydrations=%d)",
				shards, ms.Compactions, ms.Evictions, ms.Rehydrations)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d alarms, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: alarm %d differs:\n got %+v\nwant %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestEvictionTransparent freezes every idle DIMM between batches by
// ingesting through a budget small enough to evict constantly, and
// requires the alarm stream to match a never-evicted engine event for
// event — the freeze/thaw round trip must be invisible to scoring.
func TestEvictionTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model on a generated fleet")
	}
	pipe, res := trainedPipeline(t)
	var stream []trace.Event
	for _, l := range res.Store.DIMMs() {
		stream = append(stream, l.Events...)
	}
	sortSlice(stream, func(a, b trace.Event) bool { return trace.ByTime{a, b}.Less(0, 1) })

	run := func(budget int64) ([]Alarm, MemoryStats) {
		s := NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, nil, 4)
		s.MemoryBudget = budget
		for _, l := range res.Store.DIMMs() {
			s.RegisterDIMM(l.ID, l.Part)
		}
		var alarms []Alarm
		for i := 0; i < len(stream); i += 97 {
			j := i + 97
			if j > len(stream) {
				j = len(stream)
			}
			as, err := s.IngestBatch(stream[i:j])
			if err != nil {
				t.Fatal(err)
			}
			alarms = append(alarms, as...)
		}
		return alarms, s.MemoryStats()
	}

	want, _ := run(0)
	got, ms := run(64 << 10)
	if ms.Evictions == 0 || ms.Rehydrations == 0 {
		t.Fatalf("eviction never exercised (evictions=%d rehydrations=%d)", ms.Evictions, ms.Rehydrations)
	}
	if len(want) == 0 {
		t.Fatal("no alarms; fixture proves nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("%d alarms under eviction, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alarm %d differs under eviction:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestFreezeThawRoundTrip pins the serialization layer directly: freezing
// and thawing a DIMM with live history, compaction state and cooldown
// must reproduce the log's events, query results and serving scalars.
func TestFreezeThawRoundTrip(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.01, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, l := range res.Store.DIMMs() {
		if len(l.Events) < 20 {
			continue
		}
		st := &dimmState{log: &trace.DIMMLog{ID: l.ID, Part: l.Part}, lastPred: 1234, lastAlarm: 999, alarmed: true}
		for _, e := range l.Events {
			st.log.Append(e)
		}
		mid := l.Events[len(l.Events)/2].Time
		features.CompactLog(st.log, mid)

		fz := freezeDIMM(st, nil)
		th, err := fz.thaw(l.ID)
		if err != nil {
			t.Fatal(err)
		}
		if th.lastPred != st.lastPred || th.lastAlarm != st.lastAlarm || th.alarmed != st.alarmed {
			t.Fatalf("%s: serving scalars lost in round trip", l.ID)
		}
		if len(th.log.Events) != len(st.log.Events) {
			t.Fatalf("%s: %d events after thaw, want %d", l.ID, len(th.log.Events), len(st.log.Events))
		}
		for i := range th.log.Events {
			if th.log.Events[i] != st.log.Events[i] {
				t.Fatalf("%s: event %d differs after thaw:\n got %+v\nwant %+v",
					l.ID, i, th.log.Events[i], st.log.Events[i])
			}
		}
		if th.log.CompactedEvents() != st.log.CompactedEvents() ||
			th.log.Compaction().Horizon != st.log.Compaction().Horizon {
			t.Fatalf("%s: compaction bookkeeping lost in round trip", l.ID)
		}
		gf, okf := th.log.FirstCE()
		wf, okw := st.log.FirstCE()
		if okf != okw || gf != wf {
			t.Fatalf("%s: FirstCE %v,%v after thaw, want %v,%v", l.ID, gf, okf, wf, okw)
		}
		gu, oku := th.log.FirstUE()
		wu, okwu := st.log.FirstUE()
		if oku != okwu || gu != wu {
			t.Fatalf("%s: FirstUE %v,%v after thaw, want %v,%v", l.ID, gu, oku, wu, okwu)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d DIMMs checked; fixture too small", checked)
	}
}
