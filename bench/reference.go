package main

import (
	"fmt"
	"time"

	"memfp/internal/mlops"
)

// engineLayer is what the reference pass measures of the serving engine
// by calling it directly, with no HTTP around it.
type engineLayer struct {
	busyS       [2]float64 // IngestBatch wall per phase
	predictions int
	alarms      int
	// Snapshot of the state at the end of replay, restored into a fresh
	// engine (traced pass only).
	snapshotS, restoreS float64
	snapshotBytes       int
}

// Phase indices for per-phase metrics.
const (
	phaseReplay = 0
	phaseLive   = 1
)

var phaseSuffix = [2]string{".replay", ".live"}

// newReferenceEngine builds the plain engine the check phase trusts: one
// shard, unbounded, its own registry, monitor and feature store.
func (f *fixture) newReferenceEngine() (*mlops.Server, *mlops.Registry, *mlops.Monitor, error) {
	reg := mlops.NewRegistry()
	if err := importVersions(reg, f.w.Platform, f.art); err != nil {
		return nil, nil, nil, err
	}
	mon := mlops.NewMonitor()
	eng := mlops.NewShardedServer(f.w.Platform, mlops.NewFeatureStore(), reg, f.art.name, mon, 1)
	for _, d := range f.dimms {
		eng.RegisterDIMM(d.id, d.part)
	}
	return eng, reg, mon, nil
}

// runReference feeds every tick through the reference engine's
// IngestBatch — promotion at the same tick boundary as the workload —
// and records the alarm stream the topology must reproduce byte for
// byte. With snapshot set it also times Snapshot at the end of replay
// and RestoreSnapshot into a second engine.
func (f *fixture) runReference(snapshot bool) (engineLayer, error) {
	var el engineLayer
	eng, reg, mon, err := f.newReferenceEngine()
	if err != nil {
		return el, err
	}
	var alarms []mlops.Alarm
	for i, tk := range f.ticks {
		phase := f.phase(i)
		if i == f.promoteAt {
			if err := reg.Promote(f.art.name, 2); err != nil {
				return el, fmt.Errorf("reference: %w", err)
			}
		}
		if i == f.firstLive && snapshot {
			if err := f.timeSnapshot(eng, &el); err != nil {
				return el, err
			}
		}
		t0 := time.Now()
		as, err := eng.IngestBatch(f.events[tk.lo:tk.hi])
		el.busyS[phase] += time.Since(t0).Seconds()
		if err != nil {
			return el, fmt.Errorf("reference tick %d: %w", i, err)
		}
		alarms = append(alarms, as...)
	}
	if len(alarms) == 0 {
		return el, fmt.Errorf("%s: reference emitted no alarms; the check cannot discriminate", f.w.Name)
	}
	el.predictions = mon.PredictionCount()
	el.alarms = len(alarms)
	f.refAlarms = renderAlarms(alarms)
	return el, nil
}

func (f *fixture) timeSnapshot(eng *mlops.Server, el *engineLayer) error {
	t0 := time.Now()
	blob, err := eng.Snapshot()
	el.snapshotS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("reference snapshot: %w", err)
	}
	el.snapshotBytes = len(blob)
	fresh, _, _, err := f.newReferenceEngine()
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = fresh.RestoreSnapshot(blob)
	el.restoreS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("reference restore: %w", err)
	}
	return nil
}
