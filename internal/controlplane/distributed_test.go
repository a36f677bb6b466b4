package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memfp/internal/mlops"
)

// TestDistributedByteIdenticalReplay is the core invariant: a fleet of
// 1, 2 or 4 in-process nodes replaying the fleet through the control
// plane — binary tick batches, pipelined fan-out, checkpointed journal
// truncation — emits the byte-identical alarm stream of the
// single-process sharded engine: across a mid-stream model promotion, and
// across one node being killed mid-stream and rejoining (fresh state,
// same name) to restore its checkpoint — a stored chain of a full frame
// and at least one delta, merged — and catch up from a journal whose
// prefix has been truncated.
func TestDistributedByteIdenticalReplay(t *testing.T) {
	f := fleet(t)
	const tick = 512
	all := f.all
	nTicks := (len(all) + tick - 1) / tick
	if nTicks < 12 {
		t.Fatalf("fixture too small: %d ticks", nTicks)
	}
	promoteAt := nTicks / 3

	// Reference: the single-process sharded engine, promotion at the same
	// tick boundary.
	refPipe := mirror(t)
	name := refPipe.ModelName
	ref := refEngine(f, refPipe, 3)
	var refAlarms []mlops.Alarm
	ti := 0
	for lo := 0; lo < len(all); lo += tick {
		if ti == promoteAt {
			if err := refPipe.Registry.Promote(name, 2); err != nil {
				t.Fatal(err)
			}
		}
		hi := min(lo+tick, len(all))
		as, err := ref.IngestBatch(all[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		refAlarms = append(refAlarms, as...)
		ti++
	}
	if len(refAlarms) == 0 {
		t.Fatal("reference replay emitted no alarms; fixture cannot discriminate")
	}
	var sawV1, sawV2 bool
	for _, a := range refAlarms {
		sawV1 = sawV1 || strings.HasSuffix(a.Model, "-v1")
		sawV2 = sawV2 || strings.HasSuffix(a.Model, "-v2")
	}
	if !sawV1 || !sawV2 {
		t.Errorf("want alarms under both model versions, got v1=%v v2=%v", sawV1, sawV2)
	}

	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d-nodes", nodes), func(t *testing.T) {
			killAt, rejoinAt := nTicks/2, 2*nTicks/3
			// An aggressive checkpoint cadence so the kill lands on a
			// journal whose prefix has already been truncated. The node
			// that dies and rejoins carries a name a query string would
			// mangle unescaped ("+" decodes to a space, "&" splits the
			// parameter): its checkpoint pull must still find it.
			const victim = "n+1&x"
			names := []string{victim}
			for i := 1; i < nodes; i++ {
				names = append(names, fmt.Sprintf("n%d", i))
			}
			fl := bootFleet(t, Config{Pipeline: mirror(t), ExpectNodes: nodes, CheckpointEvery: 3}, names...)
			cp, cl := fl.cp, fl.cl
			for id, part := range f.parts {
				cp.RegisterDIMM(id, part)
			}
			if !cp.Ready() {
				t.Fatal("control plane not ready after every join")
			}

			// The stream is served in segments split at the reference's
			// tick boundaries; each ServeStream flushes, so every action
			// below lands on quiescent, deterministic state.
			var distAlarms []mlops.Alarm
			serve := func(lo, hi int) {
				t.Helper()
				as, err := cp.ServeStream(context.Background(), all[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				distAlarms = append(distAlarms, as...)
			}
			serve(0, promoteAt*tick)
			// Promotion over the operator API, at the reference's
			// boundary; subsequent ticks pin v2 and the nodes pull its
			// artifact on demand.
			if _, err := cl.Promote(name, 2); err != nil {
				t.Fatal(err)
			}
			serve(promoteAt*tick, killAt*tick)
			// By now several checkpoints have completed, so the journal
			// prefix must already be truncated.
			if js := cp.JournalStats(); js.Base == 0 || js.Truncations == 0 {
				t.Errorf("journal never truncated before the kill: %+v", js)
			}
			// The kill must land on a chain holding a delta, so the rejoin
			// merges one. Which checkpoint starts a new chain follows
			// delivery timing, not the stream, so the stream goes on a tick
			// at a time until then: the alarm stream does not depend on
			// where the kill lands.
			chain := func() int {
				cp.mu.Lock()
				defer cp.mu.Unlock()
				return len(cp.byName[victim].deltas)
			}
			for chain() == 0 && killAt < rejoinAt-1 {
				serve(killAt*tick, (killAt+1)*tick)
				killAt++
			}
			if chain() == 0 {
				t.Fatalf("node %s's stored chain holds no delta by tick %d", victim, killAt)
			}
			fl.kill(victim) // the node dies mid-stream; its ticks go pending
			serve(killAt*tick, rejoinAt*tick)
			sawPending := cp.status().Pending > 0
			// Fresh node, same name: it restores the checkpointed chain,
			// then journal replay of the suffix rebuilds its serving state
			// under each tick's pinned model version.
			if fl.join(t, victim).RestoredFrom() == 0 {
				t.Error("rejoining node did not restore a checkpoint; it replayed from zero")
			}
			serve(rejoinAt*tick, len(all))
			for i := 0; i < 10 && cp.status().Pending > 0; i++ {
				distAlarms = append(distAlarms, cp.Flush().Alarms...)
			}

			if !sawPending {
				t.Error("killing a node never left ticks pending; the kill path was not exercised")
			}
			js := cp.JournalStats()
			if js.Truncations == 0 || js.TruncatedTicks == 0 || js.Base == 0 {
				t.Errorf("journal lifecycle never truncated: %+v", js)
			}
			if js.SpillBytes == 0 {
				t.Errorf("no checkpoint bytes reached the spill store: %+v", js)
			}
			if ticks := cp.status().Ticks; js.Depth >= ticks {
				t.Errorf("journal depth %d not bounded below the %d-tick stream", js.Depth, ticks)
			}
			st, err := cl.Status()
			if err != nil {
				t.Fatal(err)
			}
			for _, ni := range st.Nodes {
				// The kill left the victim with an error; serving again
				// cleared it.
				if ni.CheckpointBytes == 0 || ni.LastError != "" {
					t.Errorf("node %s reports a %d-byte checkpoint and last error %q", ni.Name, ni.CheckpointBytes, ni.LastError)
				}
			}
			if got, want := renderAlarms(distAlarms), renderAlarms(refAlarms); got != want {
				t.Errorf("distributed alarm stream diverges from single-process reference:\n%s",
					firstDiff(got, want))
			}
		})
	}
}

// TestJournalBoundedOverLongRun: without kills, the journal a fleet of
// in-process nodes holds stays bounded over a run of many checkpoint
// cycles. Its depth is what sits between the journal head and the lowest
// truncation mark. Backpressure lets the head run about window ticks
// ahead of the slowest node; emission comes in bursts of up to window
// ticks (one delivered batch); and a node's checkpoint lags emission by
// up to CheckpointEvery−1 ticks, plus the batch of up to window ticks its
// sender may be delivering when the request comes. Summed, that stays
// below CheckpointEvery + 3·window ticks. The journal's frame bytes, read
// after every tick, are those of its resident ticks, so they stay below
// that many of the largest tick's.
func TestJournalBoundedOverLongRun(t *testing.T) {
	f := fleet(t)
	const every = 3
	if n := len(f.all) / streamTick; n < 20*every {
		t.Fatalf("fixture holds %d ticks, want at least %d", n, 20*every)
	}
	cp := bootFleet(t, Config{Pipeline: fastMirror(t), ExpectNodes: 2, CheckpointEvery: every}, "n1", "n2").cp
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	var peakBytes, tickBytes int64
	for lo := 0; lo < len(f.all); lo += streamTick { // ServeStream, sampled per tick
		if _, err := cp.ingestTick(f.all[lo:min(lo+streamTick, len(f.all))]); err != nil {
			t.Fatal(err)
		}
		cp.mu.Lock()
		js := cp.journal.info()
		var held int64
		for _, rec := range cp.journal.recs {
			held += rec.size
		}
		if last := cp.journal.at(cp.journal.end() - 1); last != nil {
			tickBytes = max(tickBytes, last.size)
		}
		cp.mu.Unlock()
		if js.Bytes != held {
			t.Fatalf("journal reports %d frame bytes, its %d resident ticks hold %d", js.Bytes, js.Depth, held)
		}
		peakBytes = max(peakBytes, js.Bytes)
	}
	cp.Flush()
	js := cp.JournalStats()
	if js.Truncations == 0 {
		t.Fatalf("journal never truncated over the run: %+v", js)
	}
	t.Logf("journal over the run: %+v, peak %d frame bytes, largest tick %d", js, peakBytes, tickBytes)
	bound := every + 3*window
	if js.DepthHighWater > bound {
		t.Errorf("journal depth reached %d ticks, want at most %d: %+v", js.DepthHighWater, bound, js)
	}
	if peakBytes > int64(bound)*tickBytes {
		t.Errorf("journal held %d frame bytes, want at most %d ticks of %d", peakBytes, bound, tickBytes)
	}
}

// TestDistributedRejoinServesWithoutHeartbeat is the regression test for
// the rejoin 503 window: the control plane's sender may reach a rejoining
// node the moment its join registers — before JoinOnce has built the
// engine. The node must make that request wait, not refuse it: a refusal
// marks the node dead and, with no heartbeat to revive it, strands every
// pending tick. The test holds the join response back until the sender's
// first batch has reached the fresh node and been either answered (the
// refusal) or left waiting, so the window is hit on every run.
func TestDistributedRejoinServesWithoutHeartbeat(t *testing.T) {
	f := fleet(t)
	const tick = 512
	all := f.all[:min(8*tick, len(f.all))]
	killAt := len(all) / tick / 2

	ref := refEngine(f, mirror(t), 0)
	var refAlarms []mlops.Alarm
	for lo := 0; lo < len(all); lo += tick {
		as, err := ref.IngestBatch(all[lo:min(lo+tick, len(all))])
		if err != nil {
			t.Fatal(err)
		}
		refAlarms = append(refAlarms, as...)
	}
	if len(refAlarms) == 0 {
		t.Fatal("reference replay emitted no alarms; fixture cannot discriminate")
	}

	cp, err := New(Config{Pipeline: mirror(t), ExpectNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	for id, part := range f.parts {
		cp.RegisterDIMM(id, part)
	}
	var rejoining atomic.Bool
	arrived := make(chan struct{}, 1)  // first tick batch reached the fresh node
	answered := make(chan struct{}, 1) // ... and the node answered it
	cpSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cp.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/api/v1/nodes/join" && rejoining.Load() {
			// The join is registered but its response is still buffered:
			// JoinOnce cannot have built the engine yet.
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Error("sender never reached the rejoining node")
			}
			// A node that refuses answers at once; one that waits for its
			// engine cannot answer until this response is released.
			select {
			case <-answered:
			case <-time.After(200 * time.Millisecond):
			}
		}
	}))
	t.Cleanup(cpSrv.Close)

	n1 := NewNode("n1", cpSrv.URL)
	ts1 := httptest.NewServer(n1.Handler())
	if err := n1.JoinOnce(ts1.URL); err != nil {
		t.Fatal(err)
	}
	distAlarms, err := cp.ServeStream(context.Background(), all[:killAt*tick])
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // the node dies; everything after this goes pending
	as, err := cp.ServeStream(context.Background(), all[killAt*tick:])
	if err != nil {
		t.Fatal(err)
	}
	distAlarms = append(distAlarms, as...)
	if cp.status().Pending == 0 {
		t.Fatal("killing the node left no ticks pending; the rejoin has nothing to prove")
	}

	n1b := NewNode("n1", cpSrv.URL)
	ts1b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		signal := func(ch chan struct{}) {
			if r.URL.Path == "/ingest2" {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
		signal(arrived)
		n1b.Handler().ServeHTTP(w, r)
		signal(answered)
	}))
	t.Cleanup(ts1b.Close)
	rejoining.Store(true)
	if err := n1b.JoinOnce(ts1b.URL); err != nil {
		t.Fatal(err)
	}
	res := cp.Flush() // no heartbeat anywhere in this test
	distAlarms = append(distAlarms, res.Alarms...)
	if res.Pending != 0 {
		t.Errorf("%d ticks still pending after the rejoin: the fresh node refused its first batch", res.Pending)
	}
	if got, want := renderAlarms(distAlarms), renderAlarms(refAlarms); got != want {
		t.Errorf("alarm stream across kill + rejoin diverges from reference:\n%s", firstDiff(got, want))
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
