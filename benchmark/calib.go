package main

import "time"

// The calibrated host clock. The boxes this benchmark runs on are
// small shared VMs whose speed drifts by a quarter and more over
// minutes: two sets of runs of the same code, half an hour apart, had
// medians 29 % apart on star-dqn, with the benchmark's own set-up loops
// (no repository code in them) slower by the same 29 %. To keep that
// drift out of the end-to-end times, the timed repeats of a run are
// bracketed by runs of a fixed reference loop, and setup_s and
// wall_ms_per_round are divided by the run's speed factor: the median
// reference-loop time over calibRefMs. The loop is the benchmark's own
// (generate a vector, add it into another), so no change to the
// repository can speed it up and hide in the ratio. Per-layer metrics
// stay on the raw clock; host.calib_ms and host.speed_factor report the
// calibration itself.
const (
	calibFloats  = 1 << 20
	calibSamples = 10 // reference-loop runs before each repeat and after the last
	// calibRefMs is about what the reference loop takes on the box the
	// committed baseline was measured on, so that calibrated and raw
	// times are close there.
	calibRefMs = 3.3
)

var calibAcc, calibVec = make([]float32, calibFloats), make([]float32, calibFloats)

// calibrate runs the reference loop calibSamples times and returns the
// host time of each, in milliseconds.
func calibrate() []float64 {
	out := make([]float64, calibSamples)
	for i := range out {
		out[i] = calibrateOnce()
	}
	return out
}

func calibrateOnce() float64 {
	start := time.Now()
	s := uint64(0x9E3779B97F4A7C15)
	for i := range calibVec {
		calibVec[i] = gridValue(&s)
		calibAcc[i] += calibVec[i]
	}
	return float64(time.Since(start)) / 1e6
}
