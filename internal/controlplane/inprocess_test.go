package controlplane

import (
	"testing"
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
