package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, lowest
// first. tailPercentile picks the highest one that still has at least
// minBeyond samples above it.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie strictly beyond a reported tail
// percentile for it to mean more than one outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(p float64, n int) int {
	// The tolerance keeps float error (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples above the nearest-rank percentile p.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile returns the highest ladder percentile with at least
// minBeyond samples beyond it in n samples; ok is false when even the
// median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n > 0 && beyond(tailLadder[i], n) >= minBeyond {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile p of xs, which it sorts.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median of xs (sorts xs): the mean of the middle two for even counts.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sample is a value observed N times: all events of one batch share one
// latency, so they are stored once.
type sample struct {
	V float64
	N int
}

// ones makes each value a sample of weight one.
func ones(xs []float64) []sample {
	out := make([]sample, len(xs))
	for i, x := range xs {
		out[i] = sample{x, 1}
	}
	return out
}

func weight(xs []sample) int {
	n := 0
	for _, x := range xs {
		n += x.N
	}
	return n
}

// wpercentile is the nearest-rank percentile p of the weighted samples xs,
// which it sorts.
func wpercentile(xs []sample, p float64) float64 {
	n := weight(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].V < xs[j].V })
	r := rank(p, n)
	for _, x := range xs {
		if r -= x.N; r <= 0 {
			return x.V
		}
	}
	return xs[len(xs)-1].V
}

// dist summarises a latency sample: its median and its tail at a fixed
// percentile, which must have minBeyond samples beyond it.
type dist struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	TailOK bool
	// MaxP is the highest percentile the sample supports by the
	// minBeyond rule, reported next to the fixed tail.
	MaxP float64
}

// summarize sorts xs and summarises it.
func summarize(xs []sample, tailP float64) dist {
	d := dist{N: weight(xs), TailP: tailP}
	if d.N == 0 {
		return d
	}
	d.P50 = wpercentile(xs, 50)
	d.Tail = wpercentile(xs, tailP)
	d.TailOK = beyond(tailP, d.N) >= minBeyond
	d.MaxP, _ = tailPercentile(d.N)
	return d
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openLoop is one request of an open-loop generator: when it was due by the
// schedule, when it was actually sent, and when its answer came back.
// Latency counts from the due time, so a stall that delays later requests
// is charged to them too, not hidden by the sender waiting it out.
type openLoop struct {
	Due, Sent, Done time.Time
}

// Lag is how late the generator sent the request.
func (o openLoop) Lag() time.Duration {
	if o.Sent.Before(o.Due) {
		return 0
	}
	return o.Sent.Sub(o.Due)
}

// Latency is the time from the scheduled send to the answer.
func (o openLoop) Latency() time.Duration { return o.Done.Sub(o.Due) }

// dueAt is request i's scheduled send time at a fixed period from t0.
func dueAt(t0 time.Time, period time.Duration, i int) time.Time {
	return t0.Add(time.Duration(i) * period)
}

// stepMark is one StepOnce of the server: when it was called, when it
// returned, and the server's cumulative delivered-event count after it.
type stepMark struct {
	Start, End time.Time
	Delivered  uint64
}

// attribute maps accepted events to the step that delivered them. The
// server accepts a batch atomically and each step delivers everything
// accepted before it took its snapshot, so the delivered events after step
// k are a prefix of the accepted stream: events [delivered[k-1],
// delivered[k]) were delivered by step k. accepted[i] is how many events of
// batch i were accepted, in acceptance order, and delivered counts are
// relative to the same stream origin. fn is called once per (batch, step)
// pair with the number of that batch's events the step delivered. It
// returns the number of accepted events no step delivered.
func attribute(accepted []int, steps []stepMark, base uint64, fn func(batch, step, n int)) (undelivered int) {
	b, used := 0, 0 // current batch and how many of its events are attributed
	pos := base
	for k, s := range steps {
		for pos < s.Delivered && b < len(accepted) {
			left := accepted[b] - used
			if left == 0 {
				b, used = b+1, 0
				continue
			}
			n := left
			if room := s.Delivered - pos; uint64(n) > room {
				n = int(room)
			}
			fn(b, k, n)
			used += n
			pos += uint64(n)
		}
	}
	for ; b < len(accepted); b++ {
		undelivered += accepted[b] - used
		used = 0
	}
	return undelivered
}

// windowRates splits a series of (time, cumulative work) points into
// windows of at least w and returns each window's rate.
func windowRates(ts []time.Time, work []float64, w time.Duration) []float64 {
	var rates []float64
	i := 0
	for j := 1; j < len(ts); j++ {
		if el := ts[j].Sub(ts[i]); el >= w {
			rates = append(rates, (work[j]-work[i])/el.Seconds())
			i = j
		}
	}
	return rates
}
