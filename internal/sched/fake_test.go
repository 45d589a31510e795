package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The fake batcher used by the deterministic harness: a per-lane recurrent
// toy model (acc' = acc/2 + Σ input column) whose per-lane math touches
// only that lane's panel column, mirroring the engine's lanes-never-mix
// contract. Because the recurrence is width-independent, a lane's outputs
// must be bit-identical to fakeRef scoring the same frames serially — any
// cross-lane leak, missed ResetLane, misrouted column, or state lost in a
// MoveLane breaks equality exactly.

type fakeBatcher struct {
	inDim, outDim int

	mu       sync.Mutex
	acquired []int // width of every Acquire, in order
	released int
	held     int // sessions acquired and not yet released
	maxHeld  int
	moved    int                  // MoveLane calls
	free     map[int]*fakeSession // width → idle session, like the engine arena
	// steps counts Steps over all sessions; lastWidth and lastActive
	// describe the most recent one: the panel's width and how many of its
	// lanes were live.
	steps, lastWidth, lastActive int

	// gate, when non-nil, makes every Step wait for one receive from it, so
	// async tests decide when the dispatcher's step in flight finishes;
	// parked counts Steps that have reached the gate.
	gate   chan struct{}
	parked atomic.Int64
}

func newFakeBatcher(inDim, outDim int) *fakeBatcher {
	// acquired is pre-grown so bookkeeping appends stay out of the
	// zero-alloc gate's way.
	return &fakeBatcher{inDim: inDim, outDim: outDim, acquired: make([]int, 0, 4096)}
}

func (b *fakeBatcher) InputDim() int  { return b.inDim }
func (b *fakeBatcher) OutputDim() int { return b.outDim }

// Acquire mirrors Engine.AcquireBatch: every lane comes back reset and
// live, so a core that forgets to retire the lanes it leaves empty shows up
// in lastActive.
func (b *fakeBatcher) Acquire(width int) Session {
	b.mu.Lock()
	b.acquired = append(b.acquired, width)
	if b.held++; b.held > b.maxHeld {
		b.maxHeld = b.held
	}
	s := b.free[width]
	delete(b.free, width)
	b.mu.Unlock()
	if s == nil {
		s = &fakeSession{
			b:      b,
			bw:     width,
			in:     make([]float32, b.inDim*width),
			out:    make([]float32, b.outDim*width),
			acc:    make([]float32, width),
			active: make([]bool, width),
		}
	}
	for l := range s.active {
		s.acc[l], s.active[l] = 0, true
	}
	return s
}

// MoveLane copies the toy recurrence's one state word and the live flag.
func (b *fakeBatcher) MoveLane(dst Session, dl int, src Session, sl int) {
	d, s := dst.(*fakeSession), src.(*fakeSession)
	d.acc[dl], d.active[dl] = s.acc[sl], s.active[sl]
	b.mu.Lock()
	b.moved++
	b.mu.Unlock()
}

// widths snapshots the Acquire history.
func (b *fakeBatcher) widths() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.acquired...)
}

type fakeSession struct {
	b      *fakeBatcher
	bw     int
	in     []float32
	out    []float32
	acc    []float32
	active []bool
}

func (s *fakeSession) In() []float32  { return s.in }
func (s *fakeSession) Out() []float32 { return s.out }

func (s *fakeSession) Step() {
	if g := s.b.gate; g != nil {
		s.b.parked.Add(1)
		<-g
	}
	active := 0
	for l := 0; l < s.bw; l++ {
		if !s.active[l] {
			continue
		}
		active++
		var sum float32
		for i := 0; i < s.b.inDim; i++ {
			sum += s.in[i*s.bw+l]
		}
		s.acc[l] = s.acc[l]/2 + sum
		for i := 0; i < s.b.outDim; i++ {
			s.out[i*s.bw+l] = s.acc[l] + float32(i)
		}
	}
	s.b.mu.Lock()
	s.b.steps++
	s.b.lastWidth, s.b.lastActive = s.bw, active
	s.b.mu.Unlock()
}

func (s *fakeSession) ResetLane(l int) {
	s.acc[l] = 0
	s.active[l] = true
}

func (s *fakeSession) Retire(l int) { s.active[l] = false }

// LastStepNs reports a deterministic per-step cost (fakeStepNs) so kernel
// span attribution is exactly assertable: a request scored over T steps
// accumulates T*fakeStepNs.
func (s *fakeSession) LastStepNs() int64 { return fakeStepNs }

const fakeStepNs = 1000

func (s *fakeSession) Release() {
	s.b.mu.Lock()
	s.b.released++
	s.b.held--
	if s.b.free == nil {
		s.b.free = map[int]*fakeSession{}
	}
	s.b.free[s.bw] = s
	s.b.mu.Unlock()
}

// fakeRef is the serial oracle: the recurrence a width-1 session applies.
func fakeRef(inDim, outDim int, frames [][]float32) [][]float32 {
	out := make([][]float32, len(frames))
	var acc float32
	for t, f := range frames {
		var sum float32
		for i := 0; i < inDim; i++ {
			sum += f[i]
		}
		acc = acc/2 + sum
		row := make([]float32, outDim)
		for i := range row {
			row[i] = acc + float32(i)
		}
		out[t] = row
	}
	return out
}

// traceFrames builds a deterministic utterance whose values encode the
// request identity, so misrouted lanes produce loud mismatches.
func traceFrames(id, T, inDim int) [][]float32 {
	frames := make([][]float32, T)
	for t := range frames {
		f := make([]float32, inDim)
		for i := range f {
			f[i] = float32(id+1)*0.25 + float32(t)*0.0625 - float32(i)*0.125
		}
		frames[t] = f
	}
	return frames
}

// outRows allocates a result buffer shaped for T frames.
func outRows(T, outDim int) [][]float32 {
	rows := make([][]float32, T)
	for t := range rows {
		rows[t] = make([]float32, outDim)
	}
	return rows
}

// mustEqual compares posterior rows exactly (the scheduler never changes
// summation order, so float equality is the contract, not tolerance).
func mustEqual(got, want [][]float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("row count %d, want %d", len(got), len(want))
	}
	for t := range want {
		if len(got[t]) != len(want[t]) {
			return fmt.Errorf("row %d width %d, want %d", t, len(got[t]), len(want[t]))
		}
		for i := range want[t] {
			if got[t][i] != want[t][i] {
				return fmt.Errorf("row %d col %d: got %v, want %v", t, i, got[t][i], want[t][i])
			}
		}
	}
	return nil
}
