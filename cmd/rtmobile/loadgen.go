package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rtmobile/internal/bench"
	"rtmobile/internal/speech"
)

// rtmobile loadgen: the standalone open-loop load generator (ROADMAP 2a).
// It replays the seeded synthetic corpus as a deterministic Poisson arrival
// stream at the target QPS against a running `rtmobile serve` endpoint,
// propagating a pre-assigned W3C traceparent on every request, and reports
// latency percentiles, goodput, and SLO attainment cross-checked against
// the server's own /slo view. Given the same seed and flags, the request
// stream is bit-identical run to run.

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8090", "serve endpoint base URL")
	qps := fs.Float64("qps", 50, "offered load in requests per second (open loop)")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	seed := fs.Uint64("seed", 9, "workload seed: arrival instants, utterance choice, and trace ids all derive from it")
	sloLatencyMs := fs.Float64("slo-latency-ms", 100, "latency objective classifying good responses (match the server's -slo-latency-ms)")
	maxFrames := fs.Int("max-frames", 25, "truncate each utterance to this many frames (0 = full utterances)")
	dim := fs.Int("dim", 0, "served model's input dimension; corpus frames are truncated or tiled to fit (0 = corpus feature width)")
	jsonOut := fs.String("json", "", "also write the measured row as JSON to this path")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *qps <= 0 {
		return fmt.Errorf("-qps %v: the offered load must be positive", *qps)
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration %v: the run length must be positive", *duration)
	}
	if *sloLatencyMs <= 0 {
		return fmt.Errorf("-slo-latency-ms %v: the latency objective must be positive milliseconds", *sloLatencyMs)
	}
	if *maxFrames < 0 {
		return fmt.Errorf("-max-frames %d: negative", *maxFrames)
	}
	if *dim < 0 {
		return fmt.Errorf("-dim %d: negative", *dim)
	}

	corpus, err := speech.GenerateCorpus(speech.DefaultCorpusConfig())
	if err != nil {
		return err
	}
	utts := append(append([]speech.Utterance{}, corpus.Train...), corpus.Test...)
	featDim := *dim
	if featDim == 0 {
		featDim = speech.DefaultFeatureConfig().Dim()
	}
	bodies, err := bench.LoadgenBodies(utts, featDim, *maxFrames)
	if err != nil {
		return err
	}
	plan := bench.LoadgenSchedule(*seed, len(utts), *qps, *duration)
	fmt.Printf("loadgen: %d arrivals over %v (%.1f qps offered, seed %d) -> %s\n",
		len(plan), *duration, *qps, *seed, *url)

	row := bench.RunLoadLevel(bench.NewLoadgenClient(), *url, plan, bodies,
		int64(*sloLatencyMs*1e6), *duration)
	row.TargetQPS = *qps
	fmt.Printf("requests: %d (200: %d, 429: %d, failed: %d)\n",
		row.Requests, row.Completed, row.Rejected, row.Failed)
	fmt.Printf("latency: p50=%.2fms p95=%.2fms p99=%.2fms\n", row.P50Ms, row.P95Ms, row.P99Ms)
	fmt.Printf("goodput: %.1f rps of %.1f offered (attainment %.4f)\n",
		row.GoodputRPS, row.OfferedRPS, row.Attainment)
	if row.Saturated {
		fmt.Printf("verdict: PAST the saturation knee (goodput < %.0f%% of offered)\n",
			bench.LoadgenKneeFraction*100)
	} else {
		fmt.Printf("verdict: within capacity\n")
	}
	if att, err := bench.FetchServerAttainment(*url); err != nil {
		fmt.Printf("server /slo cross-check unavailable: %v\n", err)
	} else {
		row.ServerAttainment = att
		fmt.Printf("server /slo attainment: %.4f (cumulative since server start)\n", att)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := bench.WriteLoadgenRowJSON(f, row); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}
