package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cs2p/internal/engine"
	"cs2p/internal/trace"
)

// opKind names the operations every phase accounts for.
type opKind int

const (
	opStart opKind = iota
	opChunk
	opLog
	opIngest
	opRetrain
	nOps
)

var opNames = [nOps]string{"start", "chunk", "log", "ingest", "retrain"}

// accounting counts operations attempted and failed, by kind.
type accounting struct {
	attempted, failed [nOps]atomic.Int64
}

func (a *accounting) record(k opKind, err error) {
	a.attempted[k].Add(1)
	if err != nil {
		a.failed[k].Add(1)
	}
}

func (a *accounting) totals() (attempted, failed int64) {
	for k := range a.attempted {
		attempted += a.attempted[k].Load()
		failed += a.failed[k].Load()
	}
	return
}

// served is one session as the player saw it: what it sent and every
// answer it got. One goroutine drives a session at a time.
type served struct {
	id      string
	round   int // serving round whose tier served it
	src     *trace.Session
	start   engine.StartResponse
	started bool
	check   *online
	// obs and preds record what was sent and served, kept only in traced
	// runs, which replay them against the engine directly.
	obs       []float64
	preds     []float64
	next      int // index into src.Throughput of the next observation
	remaining int // chunks in a churn session
}

// nextObs returns the session's next throughput sample, cycling its series
// for resident sessions that outlive it.
func (s *served) nextObs() float64 {
	w := s.src.Throughput[s.next%len(s.src.Throughput)]
	s.next++
	return w
}

// samples is a concurrency-safe sample of durations in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/1e6)
	s.mu.Unlock()
}

// tailRank is the number of samples the tail percentile leaves above it.
const tailRank = 10

// minTailSamples is the fewest samples for which a tail is reported.
const minTailSamples = 40

// summary is a latency sample's median and tail: the highest percentile
// with at least tailRank samples beyond it.
type summary struct {
	n                     int
	p50, tail, tailPctile float64
}

func (s *samples) summary() summary {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(v)
	n := len(v)
	out := summary{n: n, p50: math.NaN(), tail: math.NaN()}
	if n == 0 {
		return out
	}
	out.p50 = quantile(v, 0.5)
	if n >= minTailSamples {
		i := n - 1 - tailRank
		out.tail = v[i]
		out.tailPctile = 100 * float64(i+1) / float64(n)
	}
	return out
}

// event is one open-loop operation: due at an offset from the phase start,
// for one session.
type event struct {
	due     time.Duration
	session int
}

// dispatch issues an open-loop schedule. One goroutine, locked to its
// thread, sleeps in nanosleep until each event is due and hands the due time
// to the session's channel; each session's goroutine performs its
// operations in order and times each from its due time. Go's own timers
// would wake up to a millisecond late (the runtime poller waits in whole
// milliseconds), which at sub-millisecond operation times would measure
// the generator rather than the program. Every channel must be buffered for
// all of its session's events, so a stalled session never holds up the
// schedule of the others. dispatch closes every channel when done and
// returns the worst wake-up lateness.
func dispatch(phase time.Time, events []event, chans []chan time.Time) time.Duration {
	done := make(chan time.Duration)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var worst time.Duration
		for _, e := range events {
			at := phase.Add(e.due)
			for d := time.Until(at); d > 0; d = time.Until(at) {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
			}
			if late := time.Since(at); late > worst {
				worst = late
			}
			chans[e.session] <- at
		}
		for _, ch := range chans {
			close(ch)
		}
		done <- worst
	}()
	return <-done
}

// maxDur keeps the maximum of concurrently reported durations.
type maxDur struct{ v atomic.Int64 }

func (m *maxDur) observe(d time.Duration) {
	for {
		cur := m.v.Load()
		if int64(d) <= cur || m.v.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// lognormalLength draws a session length in chunks from the paper's
// lognormal session-length shape, clamped to [1, max].
func lognormalLength(r *rand.Rand, median, sigma float64, max int) int {
	n := int(math.Round(median * math.Exp(sigma*r.NormFloat64())))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink float64

// calibrate times a fixed single-threaded arithmetic loop and returns the
// median over a few repetitions in milliseconds. It measures no part of the
// program: it is printed beside the results so that a run on a machine
// that was slower than usual can be told apart from a slower program.
func calibrate() float64 {
	var v []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 1_000_000; i++ {
			x = math.Sqrt(x*1.0000001 + float64(i&7))
		}
		calibrationSink = x
		v = append(v, float64(time.Since(t0))/1e6)
	}
	return quantile(v, 0.5)
}
