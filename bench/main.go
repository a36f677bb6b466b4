// Command bench is memfp's one benchmark. It boots the serving system —
// control plane, node daemons, driver — inside one process, replays a
// generated fleet through the public HTTP API, checks the alarm stream
// byte for byte against a plain reference engine, and reports seven
// end-to-end metrics per workload; with -trace 1 it reports the per-layer
// metrics instead, from spans recorded around the public handlers and
// from direct calls into the layers below them. Everything is measured
// from outside: nothing in memfp is edited, flagged or instrumented for
// it. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 42, "fleet and training seed")
	seconds := fs.Int("seconds", 12, "how long each workload's repetitions measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", filepath.Join("out", "report.json"), "where the report is written")
	against := fs.String("against", "", "earlier report to compare this run's end-to-end metrics with")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out file] [-against file]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		todo = []workload{w}
	}
	var earlier *report
	if *against != "" {
		var err error
		if earlier, err = readReport(*against); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}
	rep := &report{Header: newHeader(o)}
	var spans []workloadSpans
	for _, w := range todo {
		wr := runWorkload(w, o)
		rep.Workloads = append(rep.Workloads, wr)
		if o.trace {
			spans = append(spans, workloadSpans{Workload: w.Name, Spans: wr.spans})
		}
	}
	rep.print(stdout)

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nreport: %s\n", *out)
	if o.trace {
		spanPath := strings.TrimSuffix(*out, ".json") + ".spans.json"
		if err := writeJSON(spanPath, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", spanPath)
	}

	code := 0
	if rep.failed() {
		code = 1
	}
	if earlier != nil {
		fmt.Fprintf(stdout, "\nagainst %s (commit %s, seed %d):\n", *against, earlier.Header.Commit, earlier.Header.Seed)
		if compare(stdout, earlier, rep) {
			code = 1
		}
	}
	// The contract's result line: last on standard output, and only for a
	// single workload that ran to the end.
	if len(rep.Workloads) == 1 && rep.Workloads[0].Error == "" {
		fmt.Fprintln(stdout, rep.Workloads[0].resultLine())
	}
	return code
}

// watchdogExpired is the production expiry: dump every goroutine and
// leave, so a wedged call is a failed run and never a hang.
func watchdogExpired(log io.Writer, op string) {
	dumpGoroutines(log, op, opDeadline)
	os.Exit(1)
}
