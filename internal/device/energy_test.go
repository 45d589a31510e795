package device

import (
	"math"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
)

func TestReportBasics(t *testing.T) {
	gpu := MobileGPU()
	p := planWith(balanced(1_000_000, 64), 2_000_000, 0, 0, 0, defaultOpt())
	p.TimestepsPerFrame = 30
	r := gpu.Report(p)
	if r.Target != gpu.Name {
		t.Fatal("target name lost")
	}
	lat := gpu.Latency(p)
	if math.Abs(r.PerFrameUJ-gpu.PowerWatts*lat.TotalUS) > 1e-9 {
		t.Fatal("per-frame energy inconsistent")
	}
	if math.Abs(r.DutyCycle-lat.TotalUS/300_000) > 1e-12 {
		t.Fatal("duty cycle inconsistent")
	}
	if math.Abs(r.AvgPowerMW-gpu.PowerWatts*r.DutyCycle*1000) > 1e-9 {
		t.Fatal("average power inconsistent")
	}
	if !strings.Contains(r.String(), "uJ/frame") {
		t.Fatal("String incomplete")
	}
}

func TestReportBoundClassification(t *testing.T) {
	gpu := MobileGPU()
	// Compute-heavy plan.
	heavy := planWith(balanced(50_000_000, 64), 100, 0, 0, 0, defaultOpt())
	if b := gpu.Report(heavy).Bound; b != "compute" {
		t.Fatalf("compute-heavy plan classified %q", b)
	}
	// Memory-heavy plan.
	mem := planWith(balanced(1000, 64), 500_000_000, 0, 0, 0, defaultOpt())
	if b := gpu.Report(mem).Bound; b != "memory" {
		t.Fatalf("memory-heavy plan classified %q", b)
	}
	// Tiny plan: overhead-bound (the Figure 4 saturation regime).
	tiny := planWith(balanced(100, 64), 100, 0, 0, 0, defaultOpt())
	if b := gpu.Report(tiny).Bound; b != "overhead" {
		t.Fatalf("tiny plan classified %q", b)
	}
}

func TestPrunedExtendsBatteryLife(t *testing.T) {
	gpu := MobileGPU()
	denseOpt := defaultOpt()
	denseOpt.Format = compiler.FormatDense
	dense := gpu.Report(planWith(balanced(9_600_000, 64), 19_200_000, 0, 0, 0, denseOpt))
	pruned := gpu.Report(planWith(balanced(100_000, 64), 200_000, 0, 0, 0, defaultOpt()))
	if pruned.AvgPowerMW >= dense.AvgPowerMW {
		t.Fatal("pruning did not lower average power (so did not extend battery life)")
	}
	if dense.DutyCycle >= 1 {
		t.Fatalf("dense GRU should still be real-time capable: duty %v", dense.DutyCycle)
	}
}
