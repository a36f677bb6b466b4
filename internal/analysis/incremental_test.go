package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"memfp/internal/dram"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// randomCEs draws a clustered CE batch: addresses are confined to small
// rank/device/bank/row/column ranges so the threshold rules actually
// trigger (uniform draws over real geometry would almost never repeat a
// cell).
func randomCEs(rng *xrand.RNG, n int) []trace.Event {
	events := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, trace.Event{
			Time: trace.Minutes(i),
			Type: trace.TypeCE,
			Addr: dram.Addr{
				Rank:   uint8(rng.Intn(2)),
				Device: uint8(rng.Intn(4)),
				Bank:   uint8(rng.Intn(3)),
				Row:    uint32(rng.Intn(6)),
				Column: uint16(rng.Intn(6)),
			},
		})
	}
	return events
}

// TestIncrementalMatchesClassify property-tests the O(1)-per-event
// incremental classifier against the batch Classify oracle at every
// prefix length.
func TestIncrementalMatchesClassify(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 30; trial++ {
		events := randomCEs(rng, 1+rng.Intn(300))
		inc := NewIncremental()
		for i, e := range events {
			inc.Add(e)
			// Check every short prefix and a sample of long ones: the
			// batch oracle is quadratic over the whole test otherwise.
			if i > 40 && i%17 != 0 && i != len(events)-1 {
				continue
			}
			want := Classify(events[:i+1])
			if got := inc.Class(); got != want {
				t.Fatalf("trial %d prefix %d: incremental %+v != batch %+v",
					trial, i+1, got, want)
			}
		}

		// Distinct-structure counts against direct set construction.
		banks := map[[3]int]struct{}{}
		rows := map[[4]int]struct{}{}
		cols := map[[4]int]struct{}{}
		cells := map[[5]int]int{}
		maxCell := 0
		for _, e := range events {
			a := e.Addr
			r, d, b, row, col := int(a.Rank), int(a.Device), int(a.Bank), int(a.Row), int(a.Column)
			banks[[3]int{r, d, b}] = struct{}{}
			rows[[4]int{r, d, b, row}] = struct{}{}
			cols[[4]int{r, d, b, col}] = struct{}{}
			k := [5]int{r, d, b, row, col}
			cells[k]++
			if cells[k] > maxCell {
				maxCell = cells[k]
			}
		}
		if inc.DistinctBanks() != len(banks) || inc.DistinctRows() != len(rows) ||
			inc.DistinctCols() != len(cols) || inc.MaxCellCEs() != maxCell {
			t.Fatalf("trial %d: distinct counts (%d,%d,%d,max %d) != (%d,%d,%d,max %d)",
				trial, inc.DistinctBanks(), inc.DistinctRows(), inc.DistinctCols(), inc.MaxCellCEs(),
				len(banks), len(rows), len(cols), maxCell)
		}
		if inc.lanes[lifetime].events != len(events) {
			t.Fatalf("trial %d: events = %d, want %d", trial, inc.lanes[lifetime].events, len(events))
		}
	}
}

// TestIncrementalFieldBoundaries is TestIncrementalMatchesClassify's
// field-boundary case. The cells sit on the edges of the cell-ID fields the
// classifier keys its maps by: every field at its widest, each single bit
// of the ID set alone (a pair with the zero cell that differs only in one
// field's top bit, or in the bit just below the next field), and the
// widest cell with each single bit cleared. After every Add and every
// Remove the classification must equal Classify's and the distinct counts
// those of struct-keyed sets, so no field can bleed into its neighbour
// unnoticed.
func TestIncrementalFieldBoundaries(t *testing.T) {
	var events []trace.Event
	ce := func(id uint64) {
		events = append(events, trace.Event{Type: trace.TypeCE, Addr: dram.CellAddr(id)})
	}
	ce(0)
	ce(^uint64(0))
	ce(^uint64(0))
	for bit := 0; bit < 64; bit++ {
		ce(1 << bit)
		ce(^uint64(0) &^ (1 << bit))
	}
	x := NewIncremental()
	check := func(held []trace.Event, when string) {
		t.Helper()
		if got, want := x.Class(), Classify(held); got != want {
			t.Fatalf("%s: incremental %+v != batch %+v", when, got, want)
		}
		banks := map[[3]int]bool{}
		rows := map[[4]int]bool{}
		cols := map[[4]int]bool{}
		cells := map[dram.Addr]int{}
		maxCell := 0
		for _, e := range held {
			a := e.Addr
			r, d, b := int(a.Rank), int(a.Device), int(a.Bank)
			banks[[3]int{r, d, b}] = true
			rows[[4]int{r, d, b, int(a.Row)}] = true
			cols[[4]int{r, d, b, int(a.Column)}] = true
			cells[a]++
			maxCell = max(maxCell, cells[a])
		}
		if x.DistinctBanks() != len(banks) || x.DistinctRows() != len(rows) ||
			x.DistinctCols() != len(cols) || x.MaxCellCEs() != maxCell {
			t.Fatalf("%s: distinct counts (%d,%d,%d,max %d) != (%d,%d,%d,max %d)", when,
				x.DistinctBanks(), x.DistinctRows(), x.DistinctCols(), x.MaxCellCEs(),
				len(banks), len(rows), len(cols), maxCell)
		}
	}
	for i, e := range events {
		x.Add(e)
		check(events[:i+1], fmt.Sprintf("after Add %d (%v)", i, e.Addr))
	}
	held := slices.Clone(events)
	rand.New(rand.NewSource(2)).Shuffle(len(held), func(i, j int) {
		held[i], held[j] = held[j], held[i]
	})
	for len(held) > 0 {
		e := held[len(held)-1]
		held = held[:len(held)-1]
		x.Remove(e)
		check(held, fmt.Sprintf("after Remove (%v), %d held", e.Addr, len(held)))
	}
}

// TestIncrementalEmpty checks the zero-event classification.
func TestIncrementalEmpty(t *testing.T) {
	inc := NewIncremental()
	if got, want := inc.Class(), Classify(nil); got != want {
		t.Fatalf("empty incremental %+v != batch %+v", got, want)
	}
}

// randCEs generates a CE stream concentrated on few structures so the
// thresholds actually trip (and un-trip as the window slides).
func randCEs(rng *rand.Rand, n int) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{
			Time: trace.Minutes(i),
			Type: trace.TypeCE,
			Addr: dram.Addr{
				Rank:   uint8(rng.Intn(2)),
				Device: uint8(rng.Intn(4)),
				Bank:   uint8(rng.Intn(3)),
				Row:    uint32(rng.Intn(5)),
				Column: uint16(rng.Intn(5)),
			},
		}
	}
	return out
}

func encodeIncremental(x *Incremental) []byte {
	var w trace.BinWriter
	x.AppendBinary(&w)
	return w.Buf
}

// TestSlidingMatchesClassify slides windows of random sizes over random
// CE streams: after each slide, the incremental classification must equal
// the batch Classify over the window's contents, and the whole state must
// be the one a classifier freshly built over those contents has — same
// read-outs, same bytes — so nothing remembers the path that led there.
func TestSlidingMatchesClassify(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		events := randCEs(rng, 400)
		s := NewIncremental()
		lo, hi := 0, 0
		for step := 0; step < 120; step++ {
			// Advance the window by random amounts on both ends.
			nhi := min(hi+rng.Intn(8), len(events))
			nlo := min(lo+rng.Intn(6), nhi)
			for ; hi < nhi; hi++ {
				s.Add(events[hi])
			}
			for ; lo < nlo; lo++ {
				s.Remove(events[lo])
			}
			got, want := s.Class(), Classify(events[lo:hi])
			if got != want {
				t.Fatalf("trial %d step %d window [%d,%d): sliding %+v != batch %+v",
					trial, step, lo, hi, got, want)
			}
			if s.lanes[lifetime].events != hi-lo {
				t.Fatalf("trial %d step %d: events=%d, want %d", trial, step, s.lanes[lifetime].events, hi-lo)
			}

			fresh := NewIncremental()
			for _, e := range events[lo:hi] {
				fresh.Add(e)
			}
			assertIncrementalEqual(t, s, fresh, "window state vs freshly built")
			enc := encodeIncremental(s)
			if !bytes.Equal(enc, encodeIncremental(fresh)) {
				t.Fatalf("trial %d step %d: encoding depends on add/remove history", trial, step)
			}
			r := trace.NewBinReader(enc)
			back := DecodeIncremental(r)
			if r.Err() != nil || r.Remaining() != 0 || !bytes.Equal(encodeIncremental(back), enc) {
				t.Fatalf("trial %d step %d: decode -> encode is not a fixpoint (err %v)", trial, step, r.Err())
			}
			if s.MemEstimate() != fresh.MemEstimate() {
				t.Fatalf("trial %d step %d: MemEstimate %d, freshly built %d", trial, step, s.MemEstimate(), fresh.MemEstimate())
			}
		}
		// Drain completely: the empty window must classify as empty and the
		// maps must not leak entries.
		for ; lo < hi; lo++ {
			s.Remove(events[lo])
		}
		if got := s.Class(); got != (Class{Mode: CompSporadic}) {
			t.Fatalf("trial %d: drained window classifies as %+v", trial, got)
		}
		if s.MemEstimate() != NewIncremental().MemEstimate() {
			t.Fatalf("trial %d: drained window retains map entries (est %d)", trial, s.MemEstimate())
		}
	}
}

// ceOn is one CE on the given cell.
func ceOn(rank, dev, bank, row, col int) trace.Event {
	return trace.Event{Type: trace.TypeCE, Addr: dram.Addr{Rank: uint8(rank), Device: uint8(dev), Bank: uint8(bank), Row: uint32(row), Column: uint16(col)}}
}

// TestMemEstimatePinned pins MemEstimate on hand-built multisets. It is the
// budget policy's charge for a classifier — the serving engine's eviction,
// rehydration and compaction counts rest on it — so a change to what the
// classifier stores must leave every value here where it is.
func TestMemEstimatePinned(t *testing.T) {
	var row, bank, multi []trace.Event
	for c := 0; c < 12; c++ {
		row = append(row, ceOn(0, 0, 1, 7, c))
	}
	row = append(row, ceOn(0, 0, 1, 7, 0), ceOn(0, 0, 1, 7, 0))
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			bank = append(bank, ceOn(1, 2, 3, 10+r, 20+c))
		}
	}
	for d := 0; d < 4; d++ {
		for i := 0; i < 3; i++ {
			multi = append(multi, ceOn(d%2, d, i, i, d), ceOn(d%2, d, i, i, d))
		}
	}
	for _, tc := range []struct {
		name        string
		add, remove []trace.Event
		want        int64
	}{
		{"empty", nil, nil, 256},
		{"one cell", []trace.Event{ceOn(0, 0, 0, 0, 0)}, nil, 768},
		{"one row, many columns", row, nil, 3280},
		{"faulty bank", bank, nil, 1984},
		{"multi-device", multi, nil, 5488},
		{"multi-device after removals", multi, multi[:7], 4240},
		{"faulty bank after removals", bank, bank[2:6], 1520},
	} {
		x := NewIncremental()
		for _, e := range tc.add {
			x.Add(e)
		}
		for _, e := range tc.remove {
			x.Remove(e)
		}
		if got := x.MemEstimate(); got != tc.want {
			t.Errorf("%s: MemEstimate %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAddRemoveAllocFree pins what the classifier stores per row and
// column — a count, not a set — without a clock: once a bank is populated,
// a cell that appears and disappears (its row and column entries created
// and dropped each time) allocates nothing, and neither does another event
// on a cell already held.
func TestAddRemoveAllocFree(t *testing.T) {
	x := NewIncremental()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		x.Add(randCE(rng))
	}
	held := randCE(rng)
	x.Add(held)
	fresh := held
	fresh.Addr.Row, fresh.Addr.Column = 1000, 1000
	for name, e := range map[string]trace.Event{"fresh cell": fresh, "held cell": held} {
		if n := testing.AllocsPerRun(1000, func() { x.Add(e); x.Remove(e) }); n != 0 {
			t.Errorf("%s: Add+Remove allocates %v times, want 0", name, n)
		}
	}
}

// TestMaxCellCEsAboveDenseCounts walks the fullest cell down across the
// bound where cell counts stop being tallied densely: the maximum stays
// exact, and the state (MemEstimate included) is the one a fresh build
// over the same counts has.
func TestMaxCellCEsAboveDenseCounts(t *testing.T) {
	a, b := ceOn(0, 0, 0, 1, 1), ceOn(0, 0, 0, 2, 2)
	x := NewIncremental()
	na, nb := denseCounts+4, denseCounts-2
	for i := 0; i < na; i++ {
		x.Add(a)
	}
	for i := 0; i < nb; i++ {
		x.Add(b)
	}
	for ; na > 0; na-- {
		fresh := NewIncremental()
		fresh.addCell(lifetime, a.Addr.CellID(), na)
		fresh.addCell(lifetime, b.Addr.CellID(), nb)
		if x.MaxCellCEs() != max(na, nb) || x.MemEstimate() != fresh.MemEstimate() {
			t.Fatalf("a=%d b=%d: MaxCellCEs %d, MemEstimate %d (fresh %d)", na, nb, x.MaxCellCEs(), x.MemEstimate(), fresh.MemEstimate())
		}
		x.Remove(a)
	}
	if x.MaxCellCEs() != nb || x.DistinctRows() != 1 {
		t.Fatalf("a drained: MaxCellCEs %d, DistinctRows %d", x.MaxCellCEs(), x.DistinctRows())
	}
}

// BenchmarkIncrementalWindowChurn sizes the sliding-window path the
// feature extractor runs per CE: one op is an Add on entry and a Remove on
// expiry over a window holding 1024 events. Half the events land on a few
// hot cells (the counts grow and shrink), half on fresh cells of a
// DefaultGeometry-sized DIMM (every map entry is created and deleted).
// held-B is the heap the filled window's classifier holds. Run with
// -benchmem.
func BenchmarkIncrementalWindowChurn(b *testing.B) {
	const window, stream = 1 << 10, 1 << 14
	rng := rand.New(rand.NewSource(1))
	events := make([]trace.Event, stream)
	for i := range events {
		if rng.Intn(2) == 0 {
			h := rng.Intn(64)
			events[i] = ceOn(h%2, h%18, h%16, 1000+h%8, h)
		} else {
			events[i] = ceOn(rng.Intn(2), rng.Intn(18), rng.Intn(16), rng.Intn(1<<17), rng.Intn(1<<10))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewIncremental()
	for _, e := range events[:window] {
		x.Add(e)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		x.Add(events[(i+window)%stream])
		x.Remove(events[i%stream])
	}
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc), "held-B")
}

// TestLanesMatchSeparateClassifiers: the two lanes share their maps'
// keys and nothing else. Random lifetime Adds interleaved with window
// Adds and the Removes that pair with them, over a clustered address range
// so the lanes keep landing on each other's cells, leave each lane's read-outs
// equal after every step to those of a separate classifier fed only that
// lane's operations, and the shared maps holding exactly the keys either
// of those holds.
func TestLanesMatchSeparateClassifiers(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		pool := randCEs(rng, 200)
		x, life, win := NewIncremental(), NewIncremental(), NewIncremental()
		var held []trace.Event // the window lane's events
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(3); {
			case op == 0:
				e := pool[rng.Intn(len(pool))]
				x.Add(e)
				life.Add(e)
			case op == 1 || len(held) == 0:
				e := pool[rng.Intn(len(pool))]
				x.AddWindow(e)
				win.Add(e)
				held = append(held, e)
			default:
				i := rng.Intn(len(held))
				e := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				x.RemoveWindow(e)
				win.Remove(e)
			}
			when := fmt.Sprintf("trial %d step %d", trial, step)
			assertIncrementalEqual(t, x, life, when+": lifetime lane")
			if x.MemEstimate() != life.MemEstimate() {
				t.Fatalf("%s: lifetime MemEstimate %d, separate classifier %d", when, x.MemEstimate(), life.MemEstimate())
			}
			w, ref := &x.lanes[window], &win.lanes[lifetime]
			if x.WindowClass() != win.Class() || w.banks != ref.banks || w.rows != ref.rows ||
				w.cols != ref.cols || w.maxCellCEs != ref.maxCellCEs || w.events != ref.events {
				t.Fatalf("%s: window lane %+v, separate classifier %+v", when, *w, *ref)
			}
			if x.WindowMemEstimate() != win.MemEstimate() {
				t.Fatalf("%s: WindowMemEstimate %d, separate classifier %d", when, x.WindowMemEstimate(), win.MemEstimate())
			}
			for name, lens := range map[string][3]int{
				"cellCEs": {len(x.cellCEs), unionLen(life.cellCEs, win.cellCEs)},
				"rowCols": {len(x.rowCols), unionLen(life.rowCols, win.rowCols)},
				"colRows": {len(x.colRows), unionLen(life.colRows, win.colRows)},
				"devCEs":  {len(x.devCEs), unionLen(life.devCEs, win.devCEs)},
				"banks":   {len(x.banks), unionLen(life.banks, win.banks)},
			} {
				if lens[0] != lens[1] {
					t.Fatalf("%s: %s holds %d keys, the lanes' union is %d", when, name, lens[0], lens[1])
				}
			}
		}
	}
}

// unionLen is the number of keys in a or b.
func unionLen[K comparable, V any](a, b map[K]V) int {
	n := len(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}

// TestLanePairLayout pins what one shared key costs: the count pair is the
// 8 bytes one int32 count per lane takes, and the bank pair holds two
// three-int32 tallies in 24 bytes, so a slot of either map is the size
// that one lane's map slot was before the lanes shared them.
func TestLanePairLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
		layout    string
	}{
		{"pair", unsafe.Sizeof(pair{}), 8, "[2]int32"},
		{"bankPair", unsafe.Sizeof(bankPair{}), 24, "[2]bankTally, bankTally {cells, faultyRows, faultyCols int32}"},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d: keep it at %s", c.name, c.got, c.want, c.layout)
		}
	}
}
