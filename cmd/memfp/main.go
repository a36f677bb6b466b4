// Command memfp is the reproduction harness CLI. It regenerates every
// table and figure of the paper from synthetic fleets, and exposes the
// individual pipeline stages for exploration.
//
// Usage:
//
//	memfp repro  [-exp all|table1|fig2|fig3|fig4|fig5|table2|fig6|transfer] [-scale 0.25] [-seed 42]
//	memfp generate -platform Intel_Purley [-scale 0.1] [-out fleet.log]
//	memfp analyze  -in fleet.log
//	memfp algos
//	memfp train    -platform Intel_Purley [-algo lightgbm] [-scale 0.1]
//	memfp serve    -platform Intel_Purley [-scale 0.05] [-trainer LightGBM]
//	memfp diag     -platform Intel_Purley [-scale 0.1]
//	memfp simulate [-validate] [-shards 4] [-o report.json] scenarios/<name>.yaml
//	memfp ctl      [-addr http://127.0.0.1:9090] status|models|promote|rollback|alarms|pause|resume|flush|metrics
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "algos":
		err = cmdAlgos(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "diag":
		err = cmdDiag(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "ctl":
		err = cmdCtl(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "memfp: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "memfp: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `memfp — reproduction of "Investigating Memory Failure Prediction Across CPU Architectures" (DSN 2024)

commands:
  repro     regenerate the paper's tables and figures
  generate  simulate one platform fleet and write BMC-style logs
  analyze   run fault analysis over a log file
  algos     list the registered prediction algorithms
  train     train and evaluate one algorithm on one platform
  serve     run the MLOps online-prediction demo
  diag      print split statistics and score quality for one platform
  simulate  drive the serving stack through declarative chaos scenarios
            (use -validate to check scenario files without running them)
  ctl       operate a running mlopsd control plane over its HTTP API

run "memfp <command> -h" for flags`)
}

func commonFlags(fs *flag.FlagSet) (*float64, *uint64) {
	scale := fs.Float64("scale", 0.25, "fleet scale relative to the paper's population")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	return scale, seed
}
