package controlplane

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// TestPauseResumeMatchesUninterrupted drives the fleet through a control
// plane that takes a maintenance window mid-stream and requires the
// alarm stream of a single engine that never paused, in the same order:
// pausing defers delivery, it never changes decisions, and the journal
// orders everything by index however pauses and resumes interleave.
// Covered in local mode and across two node daemons, for ServeStream's
// ticks, for one-event ticks inside the window, and for a goroutine
// pausing concurrently with the driver's streams and resumes.
func TestPauseResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the fixture fleet seven times")
	}
	f := fleet(t)
	stream := f.all

	ref := refEngine(f, mirror(t), 0)
	var want []mlops.Alarm
	for lo := 0; lo < len(stream); lo += streamTick {
		as, err := ref.IngestBatch(stream[lo:min(lo+streamTick, len(stream))])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, as...)
	}
	if len(want) == 0 {
		t.Fatal("stream emitted no alarms; fixture proves nothing")
	}

	// serve streams events through cp and appends the alarms to *got.
	serve := func(t *testing.T, cp *Server, got *[]mlops.Alarm, events []trace.Event) {
		t.Helper()
		as, err := cp.ServeStream(context.Background(), events)
		if err != nil {
			t.Fatal(err)
		}
		*got = append(*got, as...)
	}
	compare := func(t *testing.T, got []mlops.Alarm) {
		t.Helper()
		if got, want := renderAlarms(got), renderAlarms(want); got != want {
			t.Fatalf("paused run diverges from the uninterrupted engine:\n%s", firstDiff(got, want))
		}
	}
	// window serves the stream with a maintenance window open from event
	// len/3 to event 2·len/3; held journals the window's events.
	window := func(t *testing.T, cp *Server, held func(got *[]mlops.Alarm, events []trace.Event)) {
		var got []mlops.Alarm
		pauseAt, resumeAt := len(stream)/3, 2*len(stream)/3
		serve(t, cp, &got, stream[:pauseAt])
		cp.Pause()
		if !cp.status().Paused {
			t.Fatal("status not paused after Pause")
		}
		held(&got, stream[pauseAt:resumeAt])
		if cp.status().Pending == 0 {
			t.Fatal("maintenance window held no ticks; test proves nothing")
		}
		got = append(got, cp.Resume().Alarms...)
		serve(t, cp, &got, stream[resumeAt:])
		if pending := cp.status().Pending; pending != 0 {
			t.Fatalf("%d ticks pending after the final flush", pending)
		}
		compare(t, got)
	}

	variant := func(name string, run func(t *testing.T, cp *Server)) {
		t.Run(name, func(t *testing.T) {
			for _, topo := range []struct {
				name  string
				nodes []string
			}{{"local", nil}, {"2-nodes", []string{"n1", "n2"}}} {
				t.Run(topo.name, func(t *testing.T) {
					cp := bootFleet(t, Config{Pipeline: mirror(t), ExpectNodes: len(topo.nodes)}, topo.nodes...).cp
					for id, part := range f.parts {
						cp.RegisterDIMM(id, part)
					}
					run(t, cp)
				})
			}
		})
	}
	variant("batch", func(t *testing.T, cp *Server) {
		window(t, cp, func(got *[]mlops.Alarm, events []trace.Event) { serve(t, cp, got, events) })
	})
	// One event per tick inside the window: thousands of journaled ticks,
	// most of them empty for all but one node.
	variant("per-event", func(t *testing.T, cp *Server) {
		window(t, cp, func(got *[]mlops.Alarm, events []trace.Event) {
			for i := range events {
				res, err := cp.ingestTick(events[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				*got = append(*got, res.Alarms...)
			}
		})
	})
	// A goroutine keeps pausing while the driver serves the stream three
	// ticks at a time and resumes after each: a Pause can land inside a
	// tick's backpressure wait, the stream's final flush or Resume's
	// drain, and each gives way to it.
	variant("concurrent-repause", func(t *testing.T, cp *Server) {
		var got []mlops.Alarm
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
		for lo := 0; lo < len(stream); lo += 3 * streamTick {
			serve(t, cp, &got, stream[lo:min(lo+3*streamTick, len(stream))])
			got = append(got, cp.Resume().Alarms...)
		}
		close(done)
		pauser.Wait()
		res := cp.Resume()
		if res.Pending != 0 {
			t.Fatalf("%d ticks pending after the last resume", res.Pending)
		}
		compare(t, append(got, res.Alarms...))
	})
}
