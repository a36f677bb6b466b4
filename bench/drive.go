package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"memfp/internal/controlplane"
	"memfp/internal/mlops"
)

// ops counts driver operations — each POST, each flush-until-drained,
// each lifecycle call and each alarm check — against the ones that
// failed. A failed op fails the run.
type ops struct {
	attempted, failed int
}

// repetition is what one boot-replay-live-check cycle measured.
type repetition struct {
	ops ops

	bootS       float64
	replayS     float64   // first POST → the Flush that returned pending == 0
	liveS       float64   // live-phase wall
	tickMS      []float64 // per live tick: POST sent → its alarms emitted
	stateHeapMB float64
	peakHeapMB  float64 // diagnostic: HeapAlloc sampled at tick boundaries

	// Lifecycle only.
	rejoinS, catchupS float64

	mem     mlops.MemoryStats
	journal controlplane.JournalInfo
	rec     *recorder // nil on an untraced repetition
}

// driver is the closed-loop load generator: one goroutine, one
// keep-alive connection, one tick in flight.
type driver struct {
	t      *topology
	f      *fixture
	dog    *watchdog
	rep    *repetition
	alarms []controlplane.AlarmJSON
}

// do runs one driver operation under the watchdog and counts it; tick
// is the tick it belongs to, or -1.
func (d *driver) do(op string, tick int, fn func() error) error {
	d.rep.ops.attempted++
	d.dog.arm(op, tick)
	err := fn()
	d.dog.disarm()
	if err != nil {
		d.rep.ops.failed++
		return fmt.Errorf("%s: %w", opName(op, tick), err)
	}
	return nil
}

// post sends tick i as one MFE1 frame.
func (d *driver) post(i int) error {
	res, err := d.t.client.IngestFrame(d.f.ticks[i].frame)
	if err != nil {
		return err
	}
	d.alarms = append(d.alarms, res.Alarms...)
	return nil
}

// drain flushes until the control plane reports nothing pending. Flush
// blocks while delivery can progress, so one call is the normal case;
// the loop only spins when a node is dead, which the watchdog bounds.
func (d *driver) drain() error {
	for {
		res, err := d.t.client.Flush()
		if err != nil {
			return err
		}
		d.alarms = append(d.alarms, res.Alarms...)
		if res.Pending == 0 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// heapMB samples the live heap without forcing a collection.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// settledHeapMB is HeapAlloc after two forced collections: the second
// empties what the first moved into the sync.Pool victim caches (the
// FT-Transformer's inference arenas, the wire buffers).
func settledHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return heapMB()
}

// runRepetition boots a fresh topology over the fixture and runs the
// replay, live and check phases against it.
func runRepetition(f *fixture, dog *watchdog, traced bool) (*repetition, error) {
	rep := &repetition{}
	if traced {
		rep.rec = newRecorder()
	}
	base := settledHeapMB()
	t0 := time.Now()
	t, err := boot(f, rep.rec)
	if err != nil {
		rep.ops = ops{attempted: 1, failed: 1}
		return rep, err
	}
	defer t.close()
	rep.bootS = time.Since(t0).Seconds()
	d := &driver{t: t, f: f, dog: dog, rep: rep}

	if err := d.replay(); err != nil {
		return rep, err
	}
	rep.stateHeapMB = settledHeapMB() - base
	if err := d.live(); err != nil {
		return rep, err
	}
	rep.mem = t.memoryStats()
	rep.journal = t.cp.JournalStats()

	rep.ops.attempted++
	if got := renderWire(d.alarms); got != f.refAlarms {
		rep.ops.failed++
		return rep, fmt.Errorf("check: alarm stream differs from the reference engine's: %s", firstDiff(got, f.refAlarms))
	}
	return rep, nil
}

// span opens the root span of tick i on a traced repetition and returns
// the function that closes it.
func (d *driver) span(i, phase int) func() {
	rec := d.rep.rec
	if rec == nil {
		return func() {}
	}
	id := rec.beginTick(i, phase)
	return func() { rec.end(id) }
}

// replay is phase 1: every replay tick back to back, then one drain.
// Delivery is pipelined, so per-event cost dominates.
func (d *driver) replay() error {
	t0 := time.Now()
	for i := 0; i < d.f.firstLive; i++ {
		if err := d.lifecycle(i); err != nil {
			return err
		}
		end := d.span(i, phaseReplay)
		err := d.do("replay tick", i, func() error { return d.post(i) })
		end()
		if err != nil {
			return err
		}
		if i%32 == 0 {
			d.rep.peakHeapMB = max(d.rep.peakHeapMB, heapMB())
		}
	}
	end := d.span(d.f.firstLive-1, phaseReplay)
	err := d.do("replay drain", -1, d.drain)
	end()
	d.rep.replayS = time.Since(t0).Seconds()
	return err
}

// live is phase 2: one small tick in flight, so the per-tick fixed cost
// (round trips, journal, fan-out, frame headers) dominates.
func (d *driver) live() error {
	t0 := time.Now()
	for i := d.f.firstLive; i < len(d.f.ticks); i++ {
		end := d.span(i, phaseLive)
		start := time.Now()
		err := d.do("live tick", i, func() error {
			if err := d.post(i); err != nil {
				return err
			}
			return d.drain()
		})
		d.rep.tickMS = append(d.rep.tickMS, float64(time.Since(start).Nanoseconds())/1e6)
		end()
		if err != nil {
			return err
		}
	}
	d.rep.liveS = time.Since(t0).Seconds()
	return nil
}

// lifecycle runs the operator and failure events due before replay tick
// i: promote v2, kill node 2 on drained state, restart it under the same
// name from its checkpoint.
func (d *driver) lifecycle(i int) error {
	f, t := d.f, d.t
	switch i {
	case f.promoteAt:
		return d.do("promote v2", i, func() error {
			_, err := t.client.Promote(f.art.name, 2)
			return err
		})
	case f.killAt:
		if err := d.do("drain before kill", i, d.drain); err != nil {
			return err
		}
		t.nodes[len(t.nodes)-1].ln.close()
	case f.rejoinAt:
		last := len(t.nodes) - 1
		t0 := time.Now()
		err := d.do("rejoin", i, func() error {
			np, err := t.startNode(last)
			if err != nil {
				return err
			}
			t.nodes[last] = np
			if np.node.RestoredFrom() == 0 {
				return fmt.Errorf("node %s replayed from zero instead of restoring its checkpoint", np.node.Name)
			}
			return nil
		})
		d.rep.rejoinS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		// What Node.Run's loop does next. Without it a sender that reached
		// the new listener before JoinOnce installed the engine has marked
		// the node dead, and nothing revives it (README: known defect).
		err = d.do("heartbeat", i, func() error {
			np := t.nodes[last]
			_, err := t.client.Heartbeat(controlplane.HeartbeatRequest{Name: np.node.Name, Stats: np.node.Stats()})
			return err
		})
		if err != nil {
			return err
		}
		err = d.do("catch-up drain", i, d.drain)
		d.rep.catchupS = time.Since(t0).Seconds() - d.rep.rejoinS
		return err
	}
	return nil
}

func renderWire(as []controlplane.AlarmJSON) string {
	var sb strings.Builder
	for _, a := range as {
		alarmLine(&sb, a.Time, a.Platform, a.Server, a.Slot, a.Score, a.Model)
	}
	return sb.String()
}

// firstDiff names the first line at which two renderings differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
