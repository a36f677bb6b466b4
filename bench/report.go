package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// header describes the machine and the run, so that no number travels
// without them.
type header struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	GOGC       string    `json:"gogc"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Started    time.Time `json:"started"`
}

func newHeader(o options) header {
	commit := "unknown" // a checkout that is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return header{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GOGC: gogc, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Started: time.Now().UTC(),
	}
}

// report is the benchmark's output file: the header, then one section
// per workload with its configuration, op counts and metrics.
type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

func (r *report) failed() bool {
	for _, w := range r.Workloads {
		if !w.Correct || w.OpsFailed > 0 {
			return true
		}
	}
	return false
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// declared returns the metric table a run of this kind must fill.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// workloadSpans is one workload's entry in the span file a traced run
// writes beside its report.
type workloadSpans struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// print renders the report for a reader: header, then per workload its
// shape, op counts and every metric as median [min, max].
func (r *report) print(out io.Writer) {
	h := r.Header
	fmt.Fprintf(out, "memfp bench  commit %s  %s  GOMAXPROCS %d  NumCPU %d  GOGC %s  seed %d  seconds %d  trace %v\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.GOGC, h.Seed, h.Seconds, h.Trace)
	for _, w := range r.Workloads {
		c := w.Config
		fmt.Fprintf(out, "\n%s  platform %s  scale %g (train %g)  trainer %q  nodes %d  shards %d  budget %d MiB  replay %d×%d events  live %d×%d events  checkpoint every %d  lifecycle %v\n",
			w.Name, c.Platform, c.Scale, c.TrainScale, c.Trainer, c.Nodes, c.Shards, c.BudgetMiB,
			c.ReplayTicks, c.ReplayTick, c.LiveTicks, c.LiveTick, c.CheckpointEvery, c.Lifecycle)
		fmt.Fprintf(out, "  %d DIMMs, %d events generated, %d repetitions; ops_attempted %d  ops_failed %d  correct %v\n",
			w.DIMMs, w.Events, w.Repetitions, w.OpsAttempted, w.OpsFailed, w.Correct)
		if w.Error != "" {
			fmt.Fprintf(out, "  ERROR: %s\n", w.Error)
			continue
		}
		tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
		for _, d := range declared(h.Trace) {
			m := w.Metrics[d.Name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t[%.6g, %.6g]\tn=%d\n", d.Name, m.Median, m.Unit, m.Min, m.Max, m.N)
		}
		tw.Flush()
		if h.Trace {
			w.printSums(out)
		}
		names := make([]string, 0, len(w.Diagnostics))
		for name := range w.Diagnostics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  (diagnostic) %s %.6g\n", name, w.Diagnostics[name])
		}
	}
}

// printSums states the two layer sums with their remainders.
func (w *workloadReport) printSums(out io.Writer) {
	both := func(name string) float64 {
		return w.Metrics[name+".replay"].Median + w.Metrics[name+".live"].Median
	}
	one := func(name string) float64 { return w.Metrics[name].Median }
	host := "node.ingest2.busy_s"
	if w.Config.Nodes == 0 { // local mode: the control plane hosts the engine
		host = "controlplane.ingest.busy_s"
	}
	fmt.Fprintf(out, "  sum: %s %.4g = trace.decode_s %.4g + mlops.ingest.busy_s %.4g + node.remainder_s %.4g\n",
		host, both(host), one("trace.decode_s"), both("mlops.ingest.busy_s"), one("node.remainder_s"))
	fmt.Fprintf(out, "  sum: mlops.ingest.busy_s %.4g = trace.append_s %.4g + features.extract.busy_s %.4g + model.score.busy_s %.4g + mlops.remainder_s %.4g\n",
		both("mlops.ingest.busy_s"), one("trace.append_s"), both("features.extract.busy_s"),
		both("model.score.busy_s"), one("mlops.remainder_s"))
}

// resultLine is the benchmark contract's last line of standard output for
// a single-workload run.
func (w *workloadReport) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.OpsAttempted, w.OpsFailed, map[string]value{}}
	for name, m := range w.Metrics {
		res.Metrics[name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	return string(line)
}
