package main

import (
	"flag"
	"fmt"
	"os"

	"memfp/internal/controlplane"
)

// cmdCtl is the operator CLI for a running mlopsd control plane: status,
// registry listing and lifecycle (promote/rollback), alarm-stream paging,
// pause/resume, flush, and raw /metrics.
func cmdCtl(args []string) error {
	fs := flag.NewFlagSet("ctl", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "control-plane base URL")
	name := fs.String("model", "", "registry model name (default: the control plane's own)")
	version := fs.Int("version", 0, "model version for promote")
	since := fs.Int("since", 0, "alarm-stream cursor for alarms")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memfp ctl [-addr URL] <action>

actions:
  status    control-plane summary (mode, ticks, pending, journal, nodes)
  models    list registry versions
  promote   promote -model NAME -version N to production
  rollback  restore the previously archived production version
  alarms    page the emitted alarm stream from -since
  pause     open a maintenance window (events held, not served)
  resume    close it and drain held work
  flush     re-drive delivery of pending ticks
  metrics   dump the Prometheus exposition text`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("ctl requires exactly one action")
	}
	action := fs.Arg(0)
	// Flags may trail the action (`ctl alarms -since 40`): flag.Parse stops
	// at the first positional, so re-parse whatever followed it.
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("ctl requires exactly one action")
	}
	c := controlplane.NewClient(*addr)
	switch action {
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Printf("platform=%s model=%s mode=%s epoch=%d paused=%v\n",
			st.Platform, st.Model, st.Mode, st.Epoch, st.Paused)
		fmt.Printf("ticks=%d pending=%d alarms=%d events=%d predictions=%d\n",
			st.Ticks, st.Pending, st.Alarms, st.Events, st.Predictions)
		if j := st.Journal; j != nil {
			fmt.Printf("journal depth=%d highwater=%d base=%d truncations=%d truncated=%d spill=%dB\n",
				j.Depth, j.DepthHighWater, j.Base, j.Truncations, j.TruncatedTicks, j.SpillBytes)
		}
		for _, n := range st.Nodes {
			fmt.Printf("node %-12s %-22s slots=[%d,%d) alive=%v beat=%.1fs sent=%d ckpt=%d ckpt_bytes=%d alarms=%d\n",
				n.Name, n.Addr, n.SlotFrom, n.SlotTo, n.Alive, n.BeatAgeSec, n.SentTicks, n.Checkpoint, n.CheckpointBytes, n.Stats.Alarms)
			if n.LastError != "" {
				fmt.Printf("  last error: %s\n", n.LastError)
			}
		}
		return nil
	case "models":
		models, err := c.Models()
		if err != nil {
			return err
		}
		for _, m := range models {
			fmt.Printf("%s v%d stage=%-10s algo=%-14s F1=%.2f threshold=%.3f artifact=%dB\n",
				m.Name, m.Version, m.Stage, m.Algorithm, m.F1, m.Threshold, m.Artifact)
		}
		return nil
	case "promote":
		if *version <= 0 {
			return fmt.Errorf("promote requires -version N")
		}
		er, err := c.Promote(*name, *version)
		if err != nil {
			return err
		}
		fmt.Printf("promoted v%d (epoch %d)\n", er.Version, er.Epoch)
		return nil
	case "rollback":
		er, err := c.Rollback(*name)
		if err != nil {
			return err
		}
		fmt.Printf("rolled back to v%d (epoch %d)\n", er.Version, er.Epoch)
		return nil
	case "alarms":
		ar, err := c.Alarms(*since)
		if err != nil {
			return err
		}
		for _, a := range ar.Alarms {
			fmt.Printf("ALARM t=%d %s/%d/%d score=%.4f model=%s\n",
				a.Time, a.Platform, a.Server, a.Slot, a.Score, a.Model)
		}
		fmt.Printf("next cursor: %d\n", ar.Next)
		return nil
	case "pause":
		if err := c.Pause(); err != nil {
			return err
		}
		fmt.Println("paused")
		return nil
	case "resume":
		tr, err := c.Resume()
		if err != nil {
			return err
		}
		fmt.Printf("resumed; drained %d alarms, %d pending\n", len(tr.Alarms), tr.Pending)
		return nil
	case "flush":
		tr, err := c.Flush()
		if err != nil {
			return err
		}
		fmt.Printf("flushed; %d alarms emitted, %d pending\n", len(tr.Alarms), tr.Pending)
		return nil
	case "metrics":
		text, err := c.Metrics()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("unknown ctl action %q", action)
	}
}
