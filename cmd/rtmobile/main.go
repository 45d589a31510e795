// Command rtmobile is the command-line front end of the RTMobile
// reproduction. Subcommands cover the full workflow:
//
//	rtmobile corpus   — synthesize the TIMIT-substitute corpus, print stats
//	rtmobile train    — train a dense GRU baseline and save it
//	rtmobile prune    — BSP/ADMM-prune a saved model and report PER
//	rtmobile deploy   — lower a model (or a bundle, again) for a mobile
//	                    target into a bundle, report its latency
//	rtmobile run      — score a bundle on the test corpus
//	rtmobile serve    — serve bundles over HTTP with metrics and profiling
//	rtmobile loadgen  — replay the seeded corpus at target QPS against a server
//	rtmobile autotune — search BSP block grid + tiling for a target
//	rtmobile bench    — regenerate the paper's tables and figures
//
// A bundle records the target it was lowered for; run and serve price it
// under that target.
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "prune":
		err = cmdPrune(os.Args[2:])
	case "deploy":
		err = cmdDeploy(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "autotune":
		err = cmdAutotune(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rtmobile: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line a failed command prints: the error under one
// "rtmobile: " prefix, which the library's own errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "rtmobile: ") {
		msg = "rtmobile: " + msg
	}
	return msg
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: rtmobile <command> [flags]

commands:
  corpus     synthesize the TIMIT-substitute corpus and print statistics
  train      train a dense GRU baseline on the synthetic corpus
  prune      apply BSP (ADMM) pruning to a saved model
  deploy     lower a model, or a bundle again, for the mobile GPU/CPU into a
             deployment bundle, and report its latency
  run        load a deployment bundle and score it on the test corpus
  serve      load bundles and expose /metrics, /healthz, /statz, pprof over HTTP
  loadgen    replay the seeded corpus open-loop at target QPS against a server
  autotune   search the BSP block grid and tiling for a target
  bench      regenerate the paper's tables and figures

run "rtmobile <command> -h" for the command's flags.
`)
}
