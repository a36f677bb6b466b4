package controlplane

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"memfp/internal/mlops"
)

// bootFleet starts a control plane over pipe with n node daemons on
// loopback listeners (n == 0: local mode, one in-process node) and
// registers the fixture fleet.
func bootFleet(t *testing.T, pipe *mlops.Pipeline, n int) *Server {
	t.Helper()
	cp, err := New(Config{Pipeline: pipe, ExpectNodes: n})
	if err != nil {
		t.Fatal(err)
	}
	for id, part := range fleet(t).parts {
		cp.RegisterDIMM(id, part)
	}
	if n > 0 {
		cpSrv := httptest.NewServer(cp.Handler())
		t.Cleanup(cpSrv.Close)
		for i := 0; i < n; i++ {
			nd := NewNode(fmt.Sprintf("n%d", i+1), cpSrv.URL)
			nd.Shards = 2
			ts := httptest.NewServer(nd.Handler())
			t.Cleanup(ts.Close)
			if err := nd.JoinOnce(ts.URL); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(cp.Close) // first: the senders stop before the listeners go
	return cp
}

// TestPauseResumeMatchesUninterrupted drives the fleet through a control
// plane that takes a maintenance window mid-stream and requires the
// alarm stream of a single engine that never paused, in the same order:
// pausing defers delivery, it never changes decisions, and the journal
// orders everything by index however pauses and resumes interleave.
// Covered in local mode and across two node daemons, for 1024-event
// ticks, for one-event ticks inside the window, and for a goroutine
// pausing concurrently with the driver's ingest and resumes.
func TestPauseResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the fixture fleet seven times")
	}
	f := fleet(t)
	stream := f.all
	const tick = 1024

	ref := refEngine(f, mirror(t), 0)
	var want []mlops.Alarm
	for lo := 0; lo < len(stream); lo += tick {
		as, err := ref.IngestBatch(stream[lo:min(lo+tick, len(stream))])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, as...)
	}
	if len(want) == 0 {
		t.Fatal("stream emitted no alarms; fixture proves nothing")
	}

	// collect returns a sink for driver results that fails t on an
	// error, appends the alarms to *got and returns Pending.
	collect := func(t *testing.T, got *[]mlops.Alarm) func(TickResult, error) int {
		return func(res TickResult, err error) int {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			*got = append(*got, res.Alarms...)
			return res.Pending
		}
	}
	compare := func(t *testing.T, got []mlops.Alarm) {
		t.Helper()
		if got, want := renderAlarms(got), renderAlarms(want); got != want {
			t.Fatalf("paused run diverges from the uninterrupted engine:\n%s", firstDiff(got, want))
		}
	}
	// window feeds the stream in ticks of size(lo) events, pausing before
	// the tick holding event len/3 and resuming before the one holding
	// event 2·len/3.
	window := func(t *testing.T, cp *Server, size func(lo int) int) {
		var got []mlops.Alarm
		keep := collect(t, &got)
		pauseAt, resumeAt := len(stream)/3, 2*len(stream)/3
		for lo := 0; lo < len(stream); {
			hi := min(lo+size(lo), len(stream))
			if lo <= pauseAt && pauseAt < hi {
				cp.Pause()
				if !cp.status().Paused {
					t.Fatal("status not paused after Pause")
				}
			}
			if lo <= resumeAt && resumeAt < hi {
				if st := cp.status(); st.Pending == 0 {
					t.Fatal("maintenance window held no ticks; test proves nothing")
				}
				keep(cp.Resume())
			}
			keep(cp.IngestTick(stream[lo:hi]))
			lo = hi
		}
		if pending := keep(cp.Flush()); pending != 0 {
			t.Fatalf("%d ticks pending after the final flush", pending)
		}
		compare(t, got)
	}

	topologies := []struct {
		name  string
		nodes int
	}{{"local", 0}, {"2-nodes", 2}}
	variant := func(name string, run func(t *testing.T, cp *Server)) {
		t.Run(name, func(t *testing.T) {
			for _, topo := range topologies {
				t.Run(topo.name, func(t *testing.T) { run(t, bootFleet(t, mirror(t), topo.nodes)) })
			}
		})
	}
	variant("batch", func(t *testing.T, cp *Server) {
		window(t, cp, func(int) int { return tick })
	})
	// One event per tick inside the window: thousands of journaled ticks,
	// most of them empty for all but one node.
	variant("per-event", func(t *testing.T, cp *Server) {
		window(t, cp, func(lo int) int {
			if len(stream)/3 < lo && lo < 2*len(stream)/3 {
				return 1
			}
			return tick
		})
	})
	// A goroutine keeps pausing while the driver ingests and resumes every
	// third tick: a Pause can land inside IngestTick's backpressure wait
	// or Resume's drain, and both give way to it.
	variant("concurrent-repause", func(t *testing.T, cp *Server) {
		var got []mlops.Alarm
		keep := collect(t, &got)
		done := make(chan struct{})
		var pauser sync.WaitGroup
		pauser.Add(1)
		go func() {
			defer pauser.Done()
			for {
				select {
				case <-done:
					return
				default:
					cp.Pause()
					runtime.Gosched()
				}
			}
		}()
		for i, lo := 0, 0; lo < len(stream); i, lo = i+1, lo+tick {
			keep(cp.IngestTick(stream[lo:min(lo+tick, len(stream))]))
			if i%3 == 0 {
				keep(cp.Resume())
			}
		}
		close(done)
		pauser.Wait()
		if pending := keep(cp.Resume()); pending != 0 {
			t.Fatalf("%d ticks pending after the last resume", pending)
		}
		compare(t, got)
	})
}
