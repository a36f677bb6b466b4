// Command mlopsd runs the paper's Figure 6 MLOps framework as a
// long-lived service: it trains an initial model through the CI/CD gate,
// then serves a simulated production event stream in monthly increments,
// resolving alarm feedback, monitoring drift, and retraining + re-gating
// at each cycle — the "continuous improvement over the production
// lifecycle" the paper argues for.
//
// Control-plane mode (default) is memfp's Figure 6 loop in monthly
// cycles (memfp.BootFigure6, then Serve; `memfp serve` runs the same loop
// over the whole stream at once). It owns the pipeline, registry and
// monitor, and optionally exposes the HTTP API + Prometheus /metrics
// between the loop's boot and its replay. It serves through one node
// built in-process; with -nodes N it partitions the fleet across N node
// daemons instead, and emits the byte-identical alarm stream:
//
//	mlopsd [-platform Intel_Purley] [-scale 0.05] [-seed 42]
//	       [-trainer LightGBM] [-shards 0] [-membudget 0]
//	       [-addr 127.0.0.1:9090] [-nodes 0] [-alarm-log file] [-hold]
//	       [-spill-dir dir] [-checkpoint-every 64]
//
// Either way the bootstrap history and then each month go through the
// control plane's ServeStream — 1,024-event ticks, delivery flushed at
// the end — so every month's line counts that month's alarms. The
// -alarm-log renders every alarm, the history's too, one line each. With
// daemons the control plane also checkpoints each node's serving state
// every -checkpoint-every emitted ticks and frees the journal prefix
// every checkpoint covers; -spill-dir keeps the checkpoints on disk
// (default: in memory), and without daemons it also holds the in-process
// node's evicted DIMM state under -membudget (unset, frozen DIMMs stay on
// the heap). The month line's PSI is the fleet's: read from the
// in-process engine when the month ends, or as fresh as each daemon's
// last heartbeat.
//
// Node-daemon mode serves a deterministic slice of the fleet, pulling
// promoted model artifacts from the control plane:
//
//	mlopsd -node -join http://<control-plane> [-addr 127.0.0.1:0]
//	       [-name hostname-pid] [-shards 0] [-heartbeat 2s]
//	       [-spill-dir dir]
//
// Both modes shut down gracefully on SIGINT/SIGTERM: the control plane
// stops the stream at the next tick, drains pending work and prints the
// final dashboard, a node daemon closes its listener cleanly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"memfp"
	"memfp/internal/controlplane"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/platform"
)

type options struct {
	platform  string
	scale     float64
	seed      uint64
	trainer   string
	shards    int
	membudget int64
	addr      string
	nodes     int
	alarmLog  string
	hold      bool
	node      bool
	join      string
	name      string
	heartbeat time.Duration
	spillDir  string
	ckptEvery int
}

// newFlagSet declares every mlopsd flag (both modes) on a testable set.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mlopsd", flag.ContinueOnError)
	fs.StringVar(&o.platform, "platform", string(platform.Purley), "platform ID")
	fs.Float64Var(&o.scale, "scale", 0.05, "fleet scale")
	fs.Uint64Var(&o.seed, "seed", 42, "seed")
	fs.StringVar(&o.trainer, "trainer", model.NameGBDT, "registry trainer the service ships")
	fs.IntVar(&o.shards, "shards", 0, "serving engine shards (0 = one per CPU); any value emits the same alarms")
	fs.Int64Var(&o.membudget, "membudget", 0, "serving-state memory budget in MiB (0 = unbounded); alarms unchanged")
	fs.StringVar(&o.addr, "addr", "", "HTTP listen address (control-plane API, or the node daemon's ingest surface)")
	fs.IntVar(&o.nodes, "nodes", 0, "partition serving across this many node daemons (0 = in-process; requires -addr)")
	fs.StringVar(&o.alarmLog, "alarm-log", "", `write the emitted alarm stream to this file ("-" = stdout)`)
	fs.BoolVar(&o.hold, "hold", false, "after the replay, keep serving the HTTP API until interrupted")
	fs.BoolVar(&o.node, "node", false, "run as a node daemon instead of the control plane")
	fs.StringVar(&o.join, "join", "", "control-plane base URL a node daemon registers with")
	fs.StringVar(&o.name, "name", "", "node daemon name (default hostname-pid); rejoin with the same name to resume")
	fs.DurationVar(&o.heartbeat, "heartbeat", 2*time.Second, "node heartbeat interval")
	fs.StringVar(&o.spillDir, "spill-dir", "", "directory for node checkpoints and evicted DIMM state (default: in memory)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "checkpoint node state every N emitted ticks in distributed mode (0 = default cadence)")
	return fs
}

func main() {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if o.node {
		err = runNode(ctx, &o)
	} else {
		err = runControl(ctx, &o)
	}
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "mlopsd: %v\n", err)
		os.Exit(1)
	}
}

// runNode runs a node daemon until the context is canceled.
func runNode(ctx context.Context, o *options) error {
	if o.join == "" {
		return errors.New("-node requires -join http://<control-plane>")
	}
	name := o.name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	addr := o.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	n := controlplane.NewNode(name, o.join)
	n.Shards = o.shards
	if o.spillDir != "" {
		sp, err := mlops.NewDirSpill(o.spillDir)
		if err != nil {
			return err
		}
		n.Spill = sp
	}
	fmt.Printf("node %s serving on %s, joining %s\n", name, addr, o.join)
	if err := n.Run(ctx, addr, o.heartbeat); err != nil {
		return err
	}
	fmt.Print(n.Dashboard())
	// The memory counters live on the engine, not the monitor.
	ms := n.Stats().MemoryStats
	fmt.Printf("memory: resident=%dB evictions=%d rehydrations=%d compactions=%d (-%d events)\n",
		ms.ResidentBytes, ms.Evictions, ms.Rehydrations, ms.Compactions, ms.CompactedEvents)
	return nil
}

// runControl runs the control plane: memfp's Figure 6 loop in monthly
// cycles, with the HTTP API served between its boot and its replay. With
// -nodes N the replay is served by N joined daemons instead of the
// in-process node.
func runControl(ctx context.Context, o *options) error {
	if o.nodes > 0 && o.addr == "" {
		return errors.New("-nodes requires -addr so daemons can join")
	}
	set := memfp.Figure6{
		Platform: platform.ID(o.platform), Trainer: o.trainer,
		Shards: o.shards, MemoryBudgetMiB: o.membudget, Cycles: true,
		ControlPlane: controlplane.Config{ExpectNodes: o.nodes, CheckpointEvery: o.ckptEvery},
	}
	if o.spillDir != "" {
		sp, err := mlops.NewDirSpill(o.spillDir)
		if err != nil {
			return err
		}
		set.ControlPlane.Spill = sp
	}
	// closeLog reports a failed alarm-log write and closes the file after
	// a complete replay; the deferred Close covers the other paths.
	closeLog := func() error { return nil }
	if o.alarmLog != "" {
		out := os.Stdout
		if o.alarmLog != "-" {
			f, err := os.Create(o.alarmLog)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		alarmW := bufio.NewWriter(out)
		// One line per alarm, scores as hex floats — exact, so the logs of
		// an in-process and a distributed replay can be byte-compared. Each
		// batch is flushed with its month; a write error sticks to alarmW.
		set.Alarms = func(as []mlops.Alarm) {
			for _, a := range as {
				fmt.Fprintf(alarmW, "ALARM %d %s %d %d %s %s\n",
					int64(a.Time), a.DIMM.Platform, a.DIMM.Server, a.DIMM.Slot,
					strconv.FormatFloat(a.Score, 'x', -1, 64), a.Model)
			}
			alarmW.Flush()
		}
		closeLog = func() error {
			if err := alarmW.Flush(); err != nil || out == os.Stdout {
				return err
			}
			return out.Close()
		}
	}
	loop, err := memfp.BootFigure6(ctx, memfp.Config{Scale: o.scale, Seed: o.seed}, set, os.Stdout)
	if err != nil {
		return err
	}
	defer loop.Close()

	if o.addr != "" {
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		fmt.Printf("control plane listening on http://%s\n", ln.Addr())
		// Bodies are capped by the handlers; this bounds a client that
		// opens a connection and never finishes its headers.
		srv := &http.Server{Handler: loop.Server.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(shCtx)
		}()
	}
	if err := loop.Serve(ctx); err != nil {
		return err
	}
	if err := closeLog(); err != nil {
		return fmt.Errorf("alarm log: %w", err)
	}

	if o.nodes > 0 {
		js := loop.Server.JournalStats()
		fmt.Printf("journal: depth=%d highwater=%d base=%d truncations=%d truncated_ticks=%d spill_bytes=%d\n",
			js.Depth, js.DepthHighWater, js.Base, js.Truncations, js.TruncatedTicks, js.SpillBytes)
	}
	fmt.Println("registry state:")
	for _, v := range loop.Pipeline.Registry.List() {
		fmt.Printf("  %s v%d stage=%-10s F1=%.2f threshold=%.2f\n",
			v.Name, v.Version, v.Stage, v.Metrics.F1, v.Threshold)
	}
	if o.hold && o.addr != "" {
		fmt.Println("replay complete; holding for scrapes (interrupt to exit)")
		<-ctx.Done()
	}
	return nil
}
