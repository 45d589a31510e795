package device

import (
	"fmt"

	"rtmobile/internal/compiler"
)

// Energy and deployment reporting beyond Table II's normalized column:
// absolute per-frame energy, the duty cycle of continuous real-time
// recognition, and battery-life projection — the quantities a mobile
// deployment decision actually turns on (the paper's introduction
// motivates exactly this "always-on speech on a phone" scenario).

// EnergyReport summarizes a plan's energy behaviour on a target.
type EnergyReport struct {
	Target string
	// PerFrameUJ is the active energy per inference frame.
	PerFrameUJ float64
	// DutyCycle is the fraction of wall-clock time the processor must be
	// active to keep up with real-time audio (frame latency / frame
	// duration). Above 1 the deployment is not real-time.
	DutyCycle float64
	// AvgPowerMW is the duty-cycled average power of continuous
	// recognition (active power × duty cycle).
	AvgPowerMW float64
	// Bound labels the dominant term of the frame latency.
	Bound string
}

// frameAudioUS is the audio duration one inference frame covers; it must
// match rtmobile.TimestepsPerFrame × the 10 ms hop. Kept here as a
// constant to avoid an import cycle; asserted equal in the tests.
const frameAudioUS = 300_000.0

// Report builds the energy report for a compiled plan.
func (t *Target) Report(p *compiler.Plan) EnergyReport {
	lat := t.Latency(p)
	duty := lat.TotalUS / frameAudioUS
	bound := "overhead"
	if lat.ComputeUS >= lat.MemoryUS && lat.ComputeUS > lat.OverheadUS {
		bound = "compute"
	} else if lat.MemoryUS > lat.ComputeUS && lat.MemoryUS > lat.OverheadUS {
		bound = "memory"
	}
	return EnergyReport{
		Target:     t.Name,
		PerFrameUJ: t.EnergyPerFrameUJ(p),
		DutyCycle:  duty,
		AvgPowerMW: t.PowerWatts * duty * 1000,
		Bound:      bound,
	}
}

// String renders the report.
func (r EnergyReport) String() string {
	return fmt.Sprintf("%s: %.1f uJ/frame, duty %.4f, avg %.2f mW (%s-bound)",
		r.Target, r.PerFrameUJ, r.DutyCycle, r.AvgPowerMW, r.Bound)
}
