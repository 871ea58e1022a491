package main

import (
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has 9 beyond it
		{20, 50, true},
		{99, 50, true}, // p90 of 99 is rank 90: 9 beyond
		{100, 90, true},
		{999, 90, true}, // p99 of 999 is rank 990: 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has %d beyond", c.n, got, beyond(got, c.n))
		}
	}
}

func TestSummarizeFlagsAnUnsupportedTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(ones(xs), 90)
	if d.TailOK || d.Tail != 90 || d.P50 != 50 {
		t.Fatalf("99 samples: %+v, want p90=90 flagged unsupported, p50=50", d)
	}
	d = summarize(append(ones(xs), sample{100, 1}), 90)
	if !d.TailOK || d.Tail != 90 {
		t.Fatalf("100 samples: %+v, want p90=90 supported", d)
	}
}

func TestWeightedPercentileCountsEveryEvent(t *testing.T) {
	// Two batches: 90 events at 1 ms and 10 at 5 ms. The p90 is the last
	// event of the first batch, the p91 the first of the second.
	xs := []sample{{5, 10}, {1, 90}}
	if got := wpercentile(xs, 90); got != 1 {
		t.Errorf("p90 = %v, want 1", got)
	}
	if got := wpercentile(xs, 91); got != 5 {
		t.Errorf("p91 = %v, want 5", got)
	}
	if d := summarize(xs, 90); d.N != 100 || !d.TailOK {
		t.Errorf("summary %+v, want N=100 with p90 supported", d)
	}
}

func TestAttributeDeliversPrefixes(t *testing.T) {
	// Batches of 3, 2 (one rejected: only 2 accepted of 3) and 4 events;
	// the stream origin is 100. Step 0 delivers nothing, step 1 the first
	// four events (splitting batch 1), step 2 the rest but one.
	accepted := []int{3, 2, 4}
	steps := []stepMark{{Delivered: 100}, {Delivered: 104}, {Delivered: 108}}
	type hit struct{ batch, step, n int }
	var got []hit
	undelivered := attribute(accepted, steps, 100, func(b, k, n int) { got = append(got, hit{b, k, n}) })
	want := []hit{{0, 1, 3}, {1, 1, 1}, {1, 2, 1}, {2, 2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if undelivered != 1 {
		t.Errorf("undelivered = %d, want 1", undelivered)
	}
}

func TestOpenLoopCountsFromTheScheduledTime(t *testing.T) {
	// Requests due every 10 ms; the second takes 35 ms, so the third and
	// fourth go out late. Their latencies include the wait the stall
	// imposed, which a closed-loop timer (Done - Sent) would hide.
	t0 := time.Unix(0, 0)
	period := 10 * time.Millisecond
	service := []time.Duration{2, 35, 2, 2, 2}
	var reqs []openLoop
	free := t0
	for i, s := range service {
		o := openLoop{Due: dueAt(t0, period, i)}
		o.Sent = o.Due
		if free.After(o.Sent) {
			o.Sent = free
		}
		o.Done = o.Sent.Add(s * time.Millisecond)
		free = o.Done
		reqs = append(reqs, o)
	}
	wantLag := []time.Duration{0, 0, 25, 17, 9}
	wantLat := []time.Duration{2, 35, 27, 19, 11}
	for i, o := range reqs {
		if o.Lag() != wantLag[i]*time.Millisecond || o.Latency() != wantLat[i]*time.Millisecond {
			t.Errorf("request %d: lag %v latency %v, want %v %v", i, o.Lag(), o.Latency(),
				wantLag[i]*time.Millisecond, wantLat[i]*time.Millisecond)
		}
	}
	if early := (openLoop{Due: t0.Add(time.Second), Sent: t0}); early.Lag() != 0 {
		t.Errorf("early send has lag %v", early.Lag())
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ts []time.Time
	var work []float64
	for i := 0; i <= 10; i++ {
		ts = append(ts, t0.Add(time.Duration(i)*500*time.Millisecond))
		work = append(work, float64(i*100))
	}
	rates := windowRates(ts, work, time.Second)
	if len(rates) != 5 {
		t.Fatalf("%d windows, want 5", len(rates))
	}
	for _, r := range rates {
		if r != 200 {
			t.Fatalf("rates %v, want 200/s each", rates)
		}
	}
}
