package controlplane

import (
	"testing"

	"memfp/internal/mlops"
)

// TestLocalModeKeepsNoServedTicks: the in-process node shares the control
// plane's process, so nothing can rejoin as it and ask for a served tick
// again. With checkpoints effectively off, a flushed local-mode run has
// truncated nothing, never checkpointed, and holds no tick's events in
// the journal; and since the node sends no heartbeats, status and
// MemoryStats report its engine's own counts, read at call time.
func TestLocalModeKeepsNoServedTicks(t *testing.T) {
	f := fleet(t)
	pipe := mirror(t)
	pipe.Monitor.SetReferenceScores([]float64{0.1, 0.5, 0.9})
	cp, err := New(Config{Pipeline: pipe, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	const tick, ticks = 1024, 12
	for i := 0; i < ticks; i++ {
		if _, err := cp.IngestTick(f.all[i*tick : (i+1)*tick]); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := cp.Flush(); err != nil || res.Pending != 0 {
		t.Fatalf("flush: %d pending, %v", res.Pending, err)
	}

	st := cp.status()
	if js := *st.Journal; js.Truncations != 0 || js.TruncatedTicks != 0 || js.SpillBytes != 0 || js.Depth != ticks {
		t.Errorf("journal %+v: want %d resident records, nothing truncated or spilled", js, ticks)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Checkpoint != 0 || st.Nodes[0].CheckpointBytes != 0 {
		t.Errorf("nodes %+v: want the one in-process node, never checkpointed", st.Nodes)
	}
	cp.mu.Lock()
	for i := cp.journal.base; i < cp.journal.end(); i++ {
		if rec := cp.journal.at(i); rec.slices != nil || rec.res != nil {
			t.Errorf("emitted tick %d still holds its events or alarms", i)
		}
	}
	cp.mu.Unlock()

	engine, mon := cp.local.engine, cp.local.monitor
	if mon.PredictionCount() == 0 {
		t.Fatal("the in-process engine made no predictions; the test proves nothing")
	}
	want := engine.MemoryStats().ResidentBytes
	if got := cp.MemoryStats().ResidentBytes; got != want || want == 0 {
		t.Errorf("MemoryStats resident %d bytes, engine %d", got, want)
	}
	if st.Predictions != int64(mon.PredictionCount()) || st.Nodes[0].Stats.ResidentBytes != want {
		t.Errorf("status: %d predictions, %d resident bytes; engine: %d, %d",
			st.Predictions, st.Nodes[0].Stats.ResidentBytes, mon.PredictionCount(), want)
	}
	psi := pipe.Monitor.PSIOf(mon.ScoreBins()) // the engine's scores, the control plane's reference
	if fl := cp.Fleet(); fl.Predictions != st.Predictions || fl.PSI != psi || psi == 0 {
		t.Errorf("fleet view: %d predictions, PSI %v; engine: %d, PSI %v", fl.Predictions, fl.PSI, st.Predictions, psi)
	}
}

// TestLocalModeSpillsEvictedDIMMs: a spill store the caller sets backs
// the in-process node's evicted DIMM state, not only the checkpoints.
// Under a tight budget frozen records leave the heap for it, and the
// alarm stream is the unbudgeted run's.
func TestLocalModeSpillsEvictedDIMMs(t *testing.T) {
	f := fleet(t)
	stream := f.all[:min(12*1024, len(f.all))]
	run := func(budget int64, spill mlops.SpillStore) (string, mlops.MemoryStats) {
		pipe := fastMirror(t)
		pipe.MemoryBudget = budget
		cp, err := New(Config{Pipeline: pipe, Spill: spill})
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		for id, part := range f.parts {
			cp.RegisterDIMM(id, part)
		}
		var alarms []mlops.Alarm
		for lo := 0; lo < len(stream); lo += 1024 {
			res, err := cp.IngestTick(stream[lo:min(lo+1024, len(stream))])
			if err != nil {
				t.Fatal(err)
			}
			alarms = append(alarms, res.Alarms...)
		}
		res, err := cp.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return renderAlarms(append(alarms, res.Alarms...)), cp.MemoryStats()
	}
	want, _ := run(0, nil)
	if want == "" {
		t.Fatal("unbudgeted run emitted no alarms; the test proves nothing")
	}
	got, ms := run(256<<10, mlops.NewMemSpill())
	if ms.Evictions == 0 || ms.Spills == 0 {
		t.Fatalf("evictions=%d spills=%d: evicted DIMM state never reached the caller's store", ms.Evictions, ms.Spills)
	}
	if got != want {
		t.Errorf("budgeted, spilled alarm stream differs from the unbudgeted one:\n got %q\nwant %q", got, want)
	}
}
