package features

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"memfp/internal/analysis"
	"memfp/internal/dram"
	"memfp/internal/faultsim"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// withProcs runs fn with GOMAXPROCS pinned to n — BuildAll's worker
// count — and restores the previous value on return.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// classify runs the §V classification over ces from scratch, through a
// fresh analysis.Incremental (which the analysis tests hold to a batch
// reference).
func classify(ces []trace.Event) analysis.Class {
	x := analysis.NewIncremental()
	for _, e := range ces {
		x.Add(e)
	}
	return x.Class()
}

// naiveExtract is the pre-cursor linear extractor, preserved verbatim as
// an independent oracle: one full scan of the event history per instant.
// Every extraction now runs through Cursor, so comparing a cursor against
// another cursor alone would be circular — this copy pins the original
// semantics.
func naiveExtract(l *trace.DIMMLog, t trace.Minutes) []float64 {
	f := make([]float64, Dim())
	w := ObservationWindow

	var (
		ce15m, ce1h, ce6h, ce1d, ce5d, ceTotal int
		storms5d, stormsTotal                  int
		firstCE, lastCE                        trace.Minutes = -1, -1
		windowCEs, lifeCEs                     []trace.Event
		activeDays                             = map[trace.Minutes]struct{}{}
	)
	for _, e := range l.Events {
		if e.Time > t {
			break
		}
		switch e.Type {
		case trace.TypeCE:
			ceTotal++
			if firstCE < 0 {
				firstCE = e.Time
			}
			lastCE = e.Time
			lifeCEs = append(lifeCEs, e)
			d := t - e.Time
			if d <= 15 {
				ce15m++
			}
			if d <= trace.Hour {
				ce1h++
			}
			if d <= 6*trace.Hour {
				ce6h++
			}
			if d <= trace.Day {
				ce1d++
			}
			if d <= w {
				ce5d++
				windowCEs = append(windowCEs, e)
				activeDays[e.Time/trace.Day] = struct{}{}
			}
		case trace.TypeStorm:
			stormsTotal++
			if t-e.Time <= w {
				storms5d++
			}
		}
	}

	i := 0
	next := func(v float64) { f[i] = v; i++ }

	next(float64(ce15m))
	next(float64(ce1h))
	next(float64(ce6h))
	next(float64(ce1d))
	next(float64(ce5d))
	next(float64(ceTotal))
	accel := 0.0
	if ce5d > 0 {
		accel = float64(ce1d) / (float64(ce5d) / 5.0)
	}
	next(accel)
	next(float64(storms5d))
	next(float64(stormsTotal))
	if firstCE >= 0 {
		next(float64(t - firstCE))
		next(float64(t - lastCE))
	} else {
		next(-1)
		next(-1)
	}
	next(float64(len(activeDays)))

	clsW := classify(windowCEs)
	next(float64(clsW.FaultyCells))
	next(float64(clsW.FaultyRows))
	next(float64(clsW.FaultyCols))
	next(float64(clsW.FaultyBanks))
	next(float64(clsW.FaultyDevices))
	next(boolf(clsW.MultiDevice))

	clsL := classify(lifeCEs)
	next(float64(clsL.FaultyCells))
	next(float64(clsL.FaultyRows))
	next(float64(clsL.FaultyCols))
	next(float64(clsL.FaultyBanks))
	next(float64(clsL.FaultyDevices))
	next(boolf(clsL.MultiDevice))

	banks := map[[3]int]struct{}{}
	rows := map[[4]int]struct{}{}
	cols := map[[4]int]struct{}{}
	cellCE := map[[5]int]int{}
	maxCell := 0
	for _, e := range lifeCEs {
		a := e.Addr
		r, d, b, row, col := int(a.Rank), int(a.Device), int(a.Bank), int(a.Row), int(a.Column)
		banks[[3]int{r, d, b}] = struct{}{}
		rows[[4]int{r, d, b, row}] = struct{}{}
		cols[[4]int{r, d, b, col}] = struct{}{}
		k := [5]int{r, d, b, row, col}
		cellCE[k]++
		if cellCE[k] > maxCell {
			maxCell = cellCE[k]
		}
	}
	next(float64(len(banks)))
	next(float64(len(rows)))
	next(float64(len(cols)))
	next(float64(maxCell))

	var nBits, dq1, dq2, dq4, dq3p, beat2, beat5, bint4, sumBits, maxBits int
	for _, e := range windowCEs {
		if e.Bits.IsZero() {
			continue
		}
		nBits++
		dq := e.Bits.DQCount()
		bc := e.Bits.BeatCount()
		switch {
		case dq == 1:
			dq1++
		case dq == 2:
			dq2++
		case dq == 4:
			dq4++
		}
		if dq >= 3 {
			dq3p++
		}
		if bc == 2 {
			beat2++
		}
		if bc == 5 {
			beat5++
		}
		if e.Bits.BeatInterval() == 4 {
			bint4++
		}
		b := e.Bits.BitCount()
		sumBits += b
		if b > maxBits {
			maxBits = b
		}
	}
	frac := func(n int) float64 {
		if nBits == 0 {
			return 0
		}
		return float64(n) / float64(nBits)
	}
	next(frac(dq1))
	next(frac(dq2))
	next(frac(dq4))
	next(frac(dq3p))
	next(frac(beat2))
	next(frac(beat5))
	next(frac(bint4))
	if nBits > 0 {
		next(float64(sumBits) / float64(nBits))
	} else {
		next(0)
	}
	next(float64(maxBits))
	domDQ, domBeat, domDQI, domBI := trace.DominantSignature(windowCEs)
	next(float64(domDQ))
	next(float64(domBeat))
	next(float64(domDQI))
	next(float64(domBI))

	next(boolf(l.Part.Manufacturer == platform.VendorA))
	next(boolf(l.Part.Manufacturer == platform.VendorB))
	next(boolf(l.Part.Manufacturer == platform.VendorC))
	next(boolf(l.Part.Manufacturer == platform.VendorD))
	next(boolf(l.Part.Width == dram.X8))
	next(float64(l.Part.SpeedMTs))
	next(float64(l.Part.ProcessNm))
	next(float64(l.Part.CapacityGiB))

	if i != Dim() {
		panic(fmt.Sprintf("features: filled %d features, expected %d", i, Dim()))
	}
	return f
}

// TestCursorMatchesNaiveExtract checks the incremental path against the
// preserved pre-cursor linear extractor on a real generated fleet:
// walking a DIMM's instants with one cursor must produce exactly the
// vectors the original per-instant full-history scan produced.
func TestCursorMatchesNaiveExtract(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Purley, Scale: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSamplerConfig()
	checked := 0
	for _, l := range res.Store.DIMMs() {
		instants := cfg.Instants(l)
		if len(instants) == 0 {
			continue
		}
		cur := NewCursor(l)
		for _, ti := range instants {
			inc := cur.ExtractAt(ti)
			want := naiveExtract(l, ti)
			if !reflect.DeepEqual(inc, want) {
				for k := range inc {
					if inc[k] != want[k] {
						t.Fatalf("%s @%v: feature %q incremental %v != naive %v",
							l.ID, ti, Names()[k], inc[k], want[k])
					}
				}
			}
			checked++
		}
		if checked > 3000 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no instants checked")
	}
}

// TestCursorRepeatedAndDenseInstants exercises instants between, before
// and exactly at event times, including repeated instants (advance must
// be idempotent at the same t).
func TestCursorRepeatedAndDenseInstants(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.K920, Scale: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var l *trace.DIMMLog
	for _, cand := range res.Store.DIMMs() {
		if len(cand.CEs()) > 20 {
			l = cand
			break
		}
	}
	if l == nil {
		t.Skip("no busy DIMM at this scale")
	}
	ces := l.CEs()
	instants := []trace.Minutes{
		0,
		ces[0].Time - 1, ces[0].Time, ces[0].Time,
		ces[5].Time - 1, ces[5].Time, ces[5].Time + 1,
		ces[len(ces)-1].Time, trace.ObservationSpan,
	}
	cur := NewCursor(l)
	last := trace.Minutes(-1)
	for _, ti := range instants {
		if ti < last {
			continue // keep the nondecreasing contract
		}
		last = ti
		if got, want := cur.ExtractAt(ti), naiveExtract(l, ti); !reflect.DeepEqual(got, want) {
			t.Fatalf("instant %v: incremental and fresh vectors differ", ti)
		}
	}
}

// TestInstantsMaxPerDIMMOne is the regression test for the even-spread
// division by zero: MaxPerDIMM == 1 used to compute a NaN step and index
// with it; it must instead keep exactly the final instant.
func TestInstantsMaxPerDIMMOne(t *testing.T) {
	l := &trace.DIMMLog{ID: trace.DIMMID{Platform: platform.Purley}}
	for i := 0; i < 10; i++ {
		l.Events = append(l.Events, trace.Event{
			Time: trace.Minutes(i) * 12 * trace.Hour, Type: trace.TypeCE, DIMM: l.ID,
		})
	}
	l.SortEvents()
	cfg := SamplerConfig{MinGap: trace.Hour, MaxPerDIMM: 1}
	got := cfg.Instants(l)
	if len(got) != 1 {
		t.Fatalf("MaxPerDIMM=1 returned %d instants, want 1", len(got))
	}
	if want := l.Events[len(l.Events)-1].Time; got[0] != want {
		t.Fatalf("MaxPerDIMM=1 kept instant %v, want the final instant %v", got[0], want)
	}
	// The cap must also keep the final instant for larger budgets.
	for _, maxPer := range []int{2, 3, 7} {
		cfg.MaxPerDIMM = maxPer
		got := cfg.Instants(l)
		if len(got) != maxPer {
			t.Fatalf("MaxPerDIMM=%d returned %d instants", maxPer, len(got))
		}
		if got[len(got)-1] != l.Events[len(l.Events)-1].Time {
			t.Fatalf("MaxPerDIMM=%d dropped the final instant", maxPer)
		}
	}
}

// TestBuildAllWorkersDeterministic checks that the sharded extraction
// produces the identical sample stream at every worker count
// (GOMAXPROCS).
func TestBuildAllWorkersDeterministic(t *testing.T) {
	res, err := faultsim.GenerateCtx(context.Background(), faultsim.Config{Platform: platform.Whitley, Scale: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSamplerConfig()
	var ref []Sample
	withProcs(1, func() { ref = BuildAll(cfg, res.Store) })
	for _, workers := range []int{2, 8} {
		var got []Sample
		withProcs(workers, func() { got = BuildAll(cfg, res.Store) })
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: sample %d differs", workers, i)
			}
		}
	}
}

// TestCursorActiveDaysAcrossDayBoundaries: active_days_5d, which the
// cursor keeps in a fixed six-slot day table, equals a direct count of the
// distinct day indices among the CEs of [t−Δtd, t], at instants on, just
// before and just after day boundaries, with t−Δtd on a boundary too, and
// across jumps that empty the window or skip whole windows of CEs. A log
// shifted to negative times (a foreign frame's deltas may go below zero)
// checks the slot a negative day index falls on.
func TestCursorActiveDaysAcrossDayBoundaries(t *testing.T) {
	active := slices.Index(Names(), "active_days_5d")
	for _, shift := range []trace.Minutes{0, -20 * trace.Day} {
		l := &trace.DIMMLog{ID: trace.DIMMID{Platform: platform.Purley}}
		ce := func(tm trace.Minutes) {
			l.Events = append(l.Events, trace.Event{Time: shift + tm, Type: trace.TypeCE, DIMM: l.ID,
				Addr: dram.Addr{Row: uint32(len(l.Events) % 7), Column: uint16(len(l.Events) % 5)}})
		}
		for d := trace.Minutes(0); d < 40; d++ {
			if d%9 == 4 {
				continue // a day without CEs
			}
			ce(d * trace.Day)
			ce(d*trace.Day + 7*trace.Hour)
			ce((d+1)*trace.Day - 1)
		}
		l.SortEvents()
		var instants []trace.Minutes
		for d := trace.Minutes(0); d < 48; d++ {
			for _, off := range []trace.Minutes{0, 1, 7 * trace.Hour, trace.Day - 1} {
				instants = append(instants, shift+d*trace.Day+off)
			}
		}
		for _, stride := range []int{1, 3, 11, 29} {
			c := NewCursor(l)
			for i := 0; i < len(instants); i += stride {
				at := instants[i]
				days := map[trace.Minutes]bool{}
				for _, e := range l.Events {
					if e.Time >= at-ObservationWindow && e.Time <= at {
						days[e.Time/trace.Day] = true
					}
				}
				got := c.ExtractAt(at)
				if int(got[active]) != len(days) {
					t.Fatalf("shift %v stride %d @%v: active_days_5d %v, want %d", shift, stride, at, got[active], len(days))
				}
				if want := naiveExtract(l, at); shift == 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("stride %d @%v: cursor and naive vectors differ", stride, at)
				}
			}
		}
	}
}

// TestCursorKeepsOneCellTable: a cursor's lifetime and window
// classifications share one cell table. Advanced over 2,400 CEs on
// distinct cells, all inside one observation window, a cursor allocates at
// most 1.25 times what one classifier over the same CEs does — where a
// second table for the window would double it.
func TestCursorKeepsOneCellTable(t *testing.T) {
	l := &trace.DIMMLog{ID: trace.DIMMID{Platform: platform.Purley}}
	bits := dram.NewErrorBits(dram.X4)
	bits.Set(1, 2)
	for i := 0; i < 2400; i++ {
		l.Events = append(l.Events, trace.Event{Time: trace.Minutes(i), Type: trace.TypeCE, DIMM: l.ID, Bits: bits,
			Addr: dram.Addr{Device: uint8(i % 18), Bank: uint8(i % 16), Row: uint32(i), Column: uint16(i % 1000)}})
	}
	l.SortEvents()
	ces := l.CEs()
	last := ces[len(ces)-1].Time
	if last-ces[0].Time >= ObservationWindow {
		t.Fatal("the CEs do not fit in one window")
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var c *Cursor
	cursor := allocated(func() {
		c = NewCursor(l)
		c.ExtractAt(last)
	})
	var x *analysis.Incremental
	one := allocated(func() {
		x = analysis.NewIncremental()
		for _, e := range ces {
			x.Add(e)
		}
	})
	if c.life.Class() != x.Class() || c.life.DistinctRows() != 2400 {
		t.Fatalf("cursor classifies %+v over %d rows, one classifier %+v", c.life.Class(), c.life.DistinctRows(), x.Class())
	}
	t.Logf("a cursor over %d distinct cells allocated %d bytes, one classifier %d", len(ces), cursor, one)
	if limit := one + one/4; cursor > limit {
		t.Errorf("a cursor over %d distinct cells allocated %d bytes, one classifier %d: want at most %d", len(ces), cursor, one, limit)
	}
}
