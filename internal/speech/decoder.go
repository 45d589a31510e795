package speech

import "rtmobile/internal/tensor"

// SmoothDecode converts per-frame posteriors (one row per frame, one column
// per phone) into a collapsed phone string — per-frame argmax, merge
// repeats, drop silence — with duration modeling: posteriors are averaged
// over a centered window of `window` frames before the argmax, and label
// runs shorter than minRun frames are absorbed into their neighbours. This
// plays the role HMM transition/duration models play in a real recognizer —
// without it a framewise classifier's flicker shows up as phone insertions
// and PER is dominated by decoding noise rather than acoustic-model
// quality.
func SmoothDecode(posteriors [][]float32, window, minRun int) []int {
	T := len(posteriors)
	if T == 0 {
		return nil
	}
	if window < 1 {
		window = 1
	}
	dim := len(posteriors[0])
	half := window / 2
	frames := make([]int, T)
	avg := make([]float32, dim)
	for t := 0; t < T; t++ {
		for j := range avg {
			avg[j] = 0
		}
		n := 0
		for k := t - half; k <= t+half; k++ {
			if k < 0 || k >= T {
				continue
			}
			for j, v := range posteriors[k] {
				avg[j] += v
			}
			n++
		}
		_ = n // counts are equal-weighted; argmax is scale-invariant
		frames[t] = tensor.ArgMax(avg)
	}
	if minRun > 1 {
		frames = absorbShortRuns(frames, minRun)
	}
	return CollapseFrames(frames)
}

// absorbShortRuns replaces label runs shorter than minRun with the
// preceding run's label (or the following run's for a short prefix).
func absorbShortRuns(frames []int, minRun int) []int {
	out := make([]int, len(frames))
	copy(out, frames)
	i := 0
	for i < len(out) {
		j := i
		for j < len(out) && out[j] == out[i] {
			j++
		}
		if j-i < minRun {
			if i > 0 {
				for k := i; k < j; k++ {
					out[k] = out[i-1]
				}
			} else if j < len(out) {
				for k := i; k < j; k++ {
					out[k] = out[j]
				}
			}
		}
		i = j
	}
	return out
}
