package sched

import "time"

// Clock is the scheduler's one time dependency: reading now, which stamps
// admissions, spans and latency samples. No scheduling decision depends on
// it. Production uses the wall clock; tests inject their own to make the
// recorded durations exact, or to count the scheduler's steps.
type Clock interface {
	Now() time.Time
}

// realClock serves time.Now.
type realClock struct{}

// RealClock returns the wall-clock Clock production schedulers use.
func RealClock() Clock { return realClock{} }

func (realClock) Now() time.Time { return time.Now() }
