// Command rtmobile is the command-line front end of the RTMobile
// reproduction. Subcommands cover the full workflow:
//
//	rtmobile corpus   — synthesize the TIMIT-substitute corpus, print stats
//	rtmobile train    — train a dense GRU baseline and save it
//	rtmobile prune    — BSP/ADMM-prune a saved model and report PER
//	rtmobile compile  — lower a model for a mobile target, report latency
//	rtmobile serve    — serve a bundle over HTTP with metrics and profiling
//	rtmobile loadgen  — replay the seeded corpus at target QPS against a server
//	rtmobile autotune — search BSP block grid + tiling for a target
//	rtmobile bench    — regenerate the paper's tables and figures
package main

import (
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
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "prune":
		err = cmdPrune(os.Args[2:])
	case "compile":
		err = cmdCompile(os.Args[2:])
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
		fmt.Fprintln(os.Stderr, "rtmobile:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: rtmobile <command> [flags]

commands:
  corpus     synthesize the TIMIT-substitute corpus and print statistics
  train      train a dense GRU baseline on the synthetic corpus
  prune      apply BSP (ADMM) pruning to a saved model
  compile    compile a model for the mobile GPU/CPU model and report latency
  deploy     compile a model, or re-lower a bundle, into a deployment bundle
  run        load a deployment bundle and score it on the test corpus
  serve      load a bundle and expose /metrics, /healthz, /statz, pprof over HTTP
  loadgen    replay the seeded corpus open-loop at target QPS against a server
  autotune   search the BSP block grid and tiling for a target
  bench      regenerate the paper's tables and figures

run "rtmobile <command> -h" for the command's flags.
`)
}
