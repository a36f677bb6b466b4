package controlplane

import (
	"math/rand"
	"testing"

	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// TestJournal drives the journal alone — no server, no HTTP, no
// goroutines: ticks are appended, nodes serve them in a shuffled order
// with truncation attempts in between, and after every step the
// emission order, the truncation bounds, the index arithmetic and the
// counters are checked against a plain slice of every record ever
// appended.
func TestJournal(t *testing.T) {
	for _, c := range []struct {
		name         string
		nodes, ticks int
		seed         int64
	}{
		{"one-node-one-tick", 1, 1, 1},
		{"one-node", 1, 40, 2},
		{"two-nodes", 2, 64, 3},
		{"three-nodes", 3, 64, 4},
		{"three-nodes-reseeded", 3, 200, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			var j journal
			var all []*tickRec // all[i] is tick i, truncated or not
			type delivery struct{ tick, node int }
			var todo []delivery
			partOf := func(trace.DIMMID) string { return "A4-2666-32" }
			for i := 0; i < c.ticks; i++ {
				frames := make([][]byte, c.nodes)
				for n := range frames {
					if rng.Intn(4) > 0 { // a quarter of the frames are absent: served from the start
						frames[n] = trace.AppendEventFrame(nil, []trace.Event{{Time: trace.Minutes(i)}}, partOf)
						todo = append(todo, delivery{i, n})
					}
				}
				rec := newTickRec(frames, 1+i%2)
				j.append(rec)
				all = append(all, rec)
				if j.end() != len(all) {
					t.Fatalf("end() = %d after %d appends", j.end(), len(all))
				}
			}
			rng.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })

			emitted, high, truncations := 0, len(all), 0
			check := func() {
				t.Helper()
				// Emission: strictly ascending from where it left off,
				// stopping at the first tick a node has not served.
				for rec := j.nextReady(); rec != nil; rec = j.nextReady() {
					if rec != all[emitted] {
						t.Fatalf("nextReady skipped or repeated: want tick %d", emitted)
					}
					rec.res = nil // as the server does once it has merged them
					emitted++
				}
				if j.nextEmit != emitted || j.pending() != len(all)-emitted {
					t.Fatalf("cursor %d pending %d, want %d and %d", j.nextEmit, j.pending(), emitted, len(all)-emitted)
				}
				if emitted < len(all) {
					unserved := false
					for _, sv := range all[emitted].served {
						unserved = unserved || !sv
					}
					if !unserved {
						t.Fatalf("nextReady stopped at tick %d, which every node has served", emitted)
					}
				}
				// Index arithmetic: every surviving index resolves to its
				// record, every truncated one to nil.
				for i, rec := range all {
					want := rec
					if i < j.base {
						want = nil
					}
					if j.at(i) != want {
						t.Fatalf("at(%d) wrong with base %d", i, j.base)
					}
				}
				ji := j.info()
				if ji.Depth != len(all)-j.base || ji.Base != j.base || ji.TruncatedTicks != j.base ||
					ji.Truncations != truncations || ji.DepthHighWater != high {
					t.Fatalf("info() = %+v with base %d, %d truncations, highwater %d", ji, j.base, truncations, high)
				}
			}
			check()
			for step, d := range todo {
				alarms := []mlops.Alarm{{Time: trace.Minutes(d.tick), Score: float64(d.node)}}
				j.serve(d.tick, d.node, alarms)
				if rec := j.at(d.tick); rec != nil {
					if !rec.served[d.node] {
						t.Fatalf("serve(%d, %d) not recorded", d.tick, d.node)
					}
					if kept := rec.res[d.node] != nil; kept != (d.tick >= emitted) {
						t.Fatalf("serve(%d, %d) with cursor %d: alarms kept = %v", d.tick, d.node, emitted, kept)
					}
				}
				check()
				if emitted > j.base {
					// A rejoined node replaying an emitted tick: served
					// again, its duplicate alarms dropped.
					j.serve(j.base, 0, alarms)
					if j.at(j.base).res != nil {
						t.Fatalf("emitted tick %d kept a replayed node's alarms", j.base)
					}
				}
				if step%3 == 0 {
					// low stands for the lowest node checkpoint; it may
					// lie anywhere, including past the emission cursor.
					low := rng.Intn(len(all) + 1)
					oldBase := j.base
					j.truncateBelow(low)
					wantBase := oldBase
					if m := min(low, emitted); m > oldBase {
						wantBase = m
						truncations++
					}
					if j.base != wantBase {
						t.Fatalf("truncateBelow(%d) at cursor %d: base %d→%d, want base %d",
							low, emitted, oldBase, j.base, wantBase)
					}
					check()
				}
			}
			if emitted != len(all) {
				t.Fatalf("%d of %d ticks emitted after every delivery", emitted, len(all))
			}
			// A sender still behind the truncation point serves into
			// nothing, harmlessly.
			j.truncateBelow(len(all))
			j.serve(0, 0, nil)
			if j.at(0) != nil || j.base != len(all) {
				t.Fatalf("fully emitted journal kept base %d of %d", j.base, len(all))
			}
		})
	}
}
