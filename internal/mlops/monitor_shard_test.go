package mlops

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// TestMonitorShardStatsConcurrent hammers the per-shard telemetry from
// many goroutines — the engine's tick workers plus a metrics scraper —
// and checks the totals. Run under -race by make test-race.
func TestMonitorShardStatsConcurrent(t *testing.T) {
	m := NewMonitor()
	const (
		workers = 8
		shards  = 5
		ticks   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ticks; i++ {
				sh := (w + i) % shards
				m.SetShardQueueDepth(sh, int64(i))
				m.ObserveIngestLatency(sh, time.Duration(1+i%1000)*time.Microsecond)
				m.SetShardQueueDepth(sh, 0)
			}
		}(w)
	}
	// Concurrent scrapes while the writers run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, ss := range m.ShardStats() {
					ss.Quantile(0.5)
				}
			}
		}()
	}
	wg.Wait()

	stats := m.ShardStats()
	if len(stats) != shards {
		t.Fatalf("ShardStats: got %d shards, want %d", len(stats), shards)
	}
	var total int64
	for _, ss := range stats {
		total += ss.Ticks
		var inBuckets int64
		for _, c := range ss.Buckets {
			inBuckets += c
		}
		if inBuckets != ss.Ticks {
			t.Errorf("shard %d: bucket sum %d != ticks %d", ss.Shard, inBuckets, ss.Ticks)
		}
		if ss.QueueDepth != 0 {
			t.Errorf("shard %d: queue depth %d after drain, want 0", ss.Shard, ss.QueueDepth)
		}
		if ss.LatencySum <= 0 {
			t.Errorf("shard %d: non-positive latency sum %v", ss.Shard, ss.LatencySum)
		}
	}
	if want := int64(workers * ticks); total != want {
		t.Fatalf("total latency observations %d, want %d", total, want)
	}
}

func TestMonitorShardQuantiles(t *testing.T) {
	m := NewMonitor()
	// 100 observations at ~2µs, 1 at ~1ms: p50 lands in the 1–2µs
	// bucket (bound 2µs), p99+ catches the outlier's bucket.
	for i := 0; i < 100; i++ {
		m.ObserveIngestLatency(0, 2*time.Microsecond)
	}
	m.ObserveIngestLatency(0, time.Millisecond)
	ss := m.ShardStats()[0]
	if got := ss.Quantile(0.5); got != 2e-6 {
		t.Errorf("p50 = %g, want 2µs bound", got)
	}
	p999 := ss.Quantile(0.999)
	if p999 < 1e-3 || math.IsInf(p999, 1) {
		t.Errorf("p99.9 = %g, want the ~1ms bucket bound", p999)
	}
	if got := (ShardStat{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	bounds := LatencyBucketBounds()
	if !math.IsInf(bounds[len(bounds)-1], 1) {
		t.Errorf("last bucket bound %g, want +Inf", bounds[len(bounds)-1])
	}
	if !strings.Contains(m.Dashboard(), "shard 0: queue=0 ticks=101") {
		t.Errorf("dashboard missing shard line:\n%s", m.Dashboard())
	}
}

func TestRegistryImportVersion(t *testing.T) {
	tr, _ := model.Get(model.NameRiskyCE)
	mdl, err := tr.Fit(t.Context(), model.TrainSet{Platform: platform.Purley})
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := mdl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	v3, err := r.ImportVersion("m", 3, platform.Purley, model.NameRiskyCE, artifact, eval.Metrics{F1: 0.5}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version != 3 || v3.Stage != StageStaging {
		t.Fatalf("imported v%d stage %s, want v3 staging", v3.Version, v3.Stage)
	}
	if _, err := r.ImportVersion("m", 3, platform.Purley, model.NameRiskyCE, artifact, eval.Metrics{}, 0.4); err == nil {
		t.Fatal("duplicate import succeeded")
	}
	if _, err := r.ImportVersion("m", 0, platform.Purley, model.NameRiskyCE, artifact, eval.Metrics{}, 0.4); err == nil {
		t.Fatal("version 0 import succeeded")
	}
	if _, err := r.ImportVersion("m", 4, platform.Purley, model.NameRiskyCE, nil, eval.Metrics{}, 0.4); err == nil {
		t.Fatal("empty-artifact import succeeded")
	}
	// Out-of-order import keeps the version list sorted so Latest is v3.
	if _, err := r.ImportVersion("m", 1, platform.Purley, model.NameRiskyCE, artifact, eval.Metrics{}, 0.4); err != nil {
		t.Fatal(err)
	}
	latest, err := r.Latest("m")
	if err != nil || latest.Version != 3 {
		t.Fatalf("Latest = v%d (%v), want v3", latest.Version, err)
	}
	if err := r.Promote("m", 3); err != nil {
		t.Fatal(err)
	}
	prod, err := r.Production("m")
	if err != nil || prod.Version != 3 || prod.Threshold != 0.4 {
		t.Fatalf("Production = %+v (%v), want v3 threshold 0.4", prod, err)
	}
	if _, err := prod.ServingModel(); err != nil {
		t.Fatalf("imported artifact does not rehydrate: %v", err)
	}
}
