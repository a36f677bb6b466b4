package controlplane

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"memfp/internal/mlops"
)

// TestLocalModeKeepsNoServedTicks: the in-process node shares the control
// plane's process, so nothing can rejoin as it and ask for a served tick
// again. With checkpoints effectively off, a flushed local-mode run has
// never checkpointed or spilled, and its journal has truncated every
// tick it emitted: no record, and none of its frame bytes, is left; and
// since the node sends no heartbeats, status and MemoryStats report its
// engine's own counts, read at call time.
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
	const ticks = 12
	if _, err := cp.ServeStream(context.Background(), f.all[:ticks*streamTick]); err != nil {
		t.Fatal(err)
	}

	st := cp.status()
	if st.Pending != 0 {
		t.Fatalf("%d ticks pending after the stream's flush", st.Pending)
	}
	if js := *st.Journal; js.Depth != 0 || js.Bytes != 0 || js.TruncatedTicks != ticks || js.SpillBytes != 0 {
		t.Errorf("journal %+v: want no resident record or byte, %d ticks truncated, nothing spilled", js, ticks)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Checkpoint != 0 || st.Nodes[0].CheckpointBytes != 0 {
		t.Errorf("nodes %+v: want the one in-process node, never checkpointed", st.Nodes)
	}

	node, _ := cp.hosts.Load(inProcessHost)
	engine, mon := node.(*Node).engine, node.(*Node).monitor
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
	stream := f.all[:min(12*streamTick, len(f.all))]
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
		alarms, err := cp.ServeStream(context.Background(), stream)
		if err != nil {
			t.Fatal(err)
		}
		return renderAlarms(alarms), cp.MemoryStats()
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

// cancelAfter is a context that reports Canceled from its (n+1)th Err
// call on. ServeStream consults Err once before each tick, so the
// cancellation lands between tick n and tick n+1.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestServeStreamCancel: a stream canceled between ticks stops journaling
// there, still flushes what it journaled, and returns context.Canceled
// with the alarms of the ticks it served — a prefix of the uncanceled
// run's stream — and nothing left pending.
func TestServeStreamCancel(t *testing.T) {
	f := fleet(t)
	stream := f.all[:min(12*streamTick, len(f.all))]
	run := func(ctx context.Context) ([]mlops.Alarm, StatusResponse, error) {
		cp := bootFleet(t, Config{Pipeline: alwaysFirePipeline(t)}).cp
		for id, part := range f.parts {
			cp.RegisterDIMM(id, part)
		}
		alarms, err := cp.ServeStream(ctx, stream)
		return alarms, cp.status(), err
	}
	full, _, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const served = 3
	got, st, err := run(&cancelAfter{Context: context.Background(), n: served})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled stream returned %v, want context.Canceled", err)
	}
	if st.Ticks != served || st.Pending != 0 {
		t.Errorf("canceled stream journaled %d ticks with %d pending, want %d and 0", st.Ticks, st.Pending, served)
	}
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("canceled stream returned %d alarms, full stream %d; the test proves nothing", len(got), len(full))
	}
	if g, w := renderAlarms(got), renderAlarms(full); !strings.HasPrefix(w, g) {
		t.Errorf("canceled stream's alarms are not a prefix of the full stream's:\n%s", firstDiff(g, w))
	}
}

// TestRouterConcurrentRoutes: requests through the router race with
// in-process hosts being routed and unrouted, as a test fleet's kills and
// rejoins do under the senders. Each request is either served by the node
// routed at its host or refused at once, and an in-process host that was
// never routed is refused without reaching the network. make test-race
// runs it with -count=10.
func TestRouterConcurrentRoutes(t *testing.T) {
	var rt router
	client := &http.Client{Transport: &rt}
	if _, err := client.Get("http://" + inProcessHost + "-9/healthz"); err == nil ||
		!strings.Contains(err.Error(), "no in-process node") {
		t.Fatalf("unrouted in-process host: %v", err)
	}

	hosts := []string{inProcessHost + "-0", inProcessHost + "-1"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				resp, err := client.Get("http://" + hosts[(g+i)%2] + "/healthz")
				if err != nil {
					if !strings.Contains(err.Error(), "no in-process node") {
						t.Error(err)
					}
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
					t.Errorf("routed node answered %d %q, %v", resp.StatusCode, body, err)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rt.Store(hosts[i%2], NewNode("n", "http://control-plane"))
		rt.Delete(hosts[(i+1)%2])
	}
	wg.Wait()
}
