package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// A/A check: two sets of runs of the same code must agree within the
// benchmark's own bounds, or the bounds mean nothing. Each set is k full
// suites (all four workloads, untraced); the sets are interleaved so a
// drift of the host lands on both; every run has its own seed, as the
// pipeline's runs have.

// runChild runs one untraced workload in a fresh process (fresh worker
// pool, fresh VmHWM) and returns its metrics.
func runChild(exe, workload string, seed uint64, seconds float64, stderr io.Writer) (values, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	v := values{}
	for name, m := range res.Metrics {
		v[name] = m.Value
	}
	return v, nil
}

// aaCell is one (workload, metric) comparison.
type aaCell struct {
	workload string
	def      metricDef
	a, b     []float64
}

// gap is how much worse the worse set's median is, as a share of the
// other's; spread is the quartile distance of all runs over their median.
func (c aaCell) gap() float64 {
	ma, mb := median(c.a), median(c.b)
	lo, hi := min(ma, mb), max(ma, mb)
	if c.def.higher {
		return ratio(hi-lo, hi)
	}
	return ratio(hi-lo, lo)
}

func (c aaCell) spread() float64 {
	return quartileSpread(append(append([]float64(nil), c.a...), c.b...))
}

func (c aaCell) verdict() string {
	switch g := max(c.gap(), c.spreadGated()); {
	case g > c.def.bound:
		return "BREACH"
	case g > c.def.bound/2:
		return "marginal"
	}
	return "ok"
}

// spreadGated is the spread where the pipeline gates it: everywhere but
// setup_s.
func (c aaCell) spreadGated() float64 {
	if c.def.name == "setup_s" {
		return 0
	}
	return c.spread()
}

func runAA(k int, seed uint64, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
		return 1
	}
	cells := make(map[string]*aaCell)
	var order []string
	for i := 0; i < k; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				s := seed + uint64(2*i+set)
				v, err := runChild(exe, w.name, s, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
					return 1
				}
				fmt.Fprintf(stderr, "aa: suite %d set %c %s seed %d done\n", i+1, 'A'+set, w.name, s)
				for _, d := range endToEnd {
					key := w.name + "/" + d.name
					c, ok := cells[key]
					if !ok {
						c = &aaCell{workload: w.name, def: d}
						cells[key] = c
						order = append(order, key)
					}
					if set == 0 {
						c.a = append(c.a, v[d.name])
					} else {
						c.b = append(c.b, v[d.name])
					}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | gap %% | spread %% | bound %% | verdict |\n|---|---|---|---|---|---|---|---|\n")
	breaches := 0
	for _, key := range order {
		c := cells[key]
		if c.verdict() == "BREACH" {
			breaches++
		}
		fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %.2f | %.2f | %g | %s |\n", c.workload, c.def.name,
			median(c.a), median(c.b), 100*c.gap(), 100*c.spread(), 100*c.def.bound, c.verdict())
	}
	fmt.Fprintf(stdout, "\n%d suites per set, %g s timed per run, seeds %d..%d; %d of %d cells breach\n",
		k, seconds, seed, seed+uint64(2*k-1), breaches, len(order))
	if breaches > 0 {
		return 1
	}
	return 0
}
