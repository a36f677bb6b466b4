package main

import (
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"time"
)

// watchdog turns a driver operation that outlives its deadline into a
// failure instead of a hang. The driver arms it before each operation
// and disarms it after; a goroutine polls the armed deadline, so the
// hot path pays two mutex operations and no goroutine hand-off.
type watchdog struct {
	limit  time.Duration
	expire func(op string) // called once, from the watchdog goroutine

	mu       sync.Mutex
	op       string
	tick     int
	deadline time.Time // zero when disarmed

	stop chan struct{}
	done chan struct{}
}

// startWatchdog starts the polling goroutine; stopWatchdog ends it.
func startWatchdog(limit time.Duration, expire func(op string)) *watchdog {
	w := &watchdog{limit: limit, expire: expire, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		poll := time.NewTicker(limit / 8)
		defer poll.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-poll.C:
				w.mu.Lock()
				op, tick, late := w.op, w.tick, !w.deadline.IsZero() && now.After(w.deadline)
				w.mu.Unlock()
				if late {
					w.expire(opName(op, tick))
					return
				}
			}
		}
	}()
	return w
}

// arm starts the clock on one operation; tick is the tick it belongs to,
// or -1.
func (w *watchdog) arm(op string, tick int) {
	w.mu.Lock()
	w.op, w.tick, w.deadline = op, tick, time.Now().Add(w.limit)
	w.mu.Unlock()
}

func opName(op string, tick int) string {
	if tick < 0 {
		return op
	}
	return fmt.Sprintf("%s %d", op, tick)
}

func (w *watchdog) disarm() {
	w.mu.Lock()
	w.deadline = time.Time{}
	w.mu.Unlock()
}

func (w *watchdog) stopWatchdog() {
	close(w.stop)
	<-w.done
}

// dumpGoroutines writes every goroutine's stack, the evidence a wedged
// operation leaves behind.
func dumpGoroutines(w io.Writer, op string, limit time.Duration) {
	fmt.Fprintf(w, "bench: FAILED op %q exceeded its %v deadline; goroutine dump follows\n", op, limit)
	pprof.Lookup("goroutine").WriteTo(w, 2)
}
