package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

const (
	ingestDevices = 96
	batchEvents   = 32
	// batchRing is how many distinct seeded batches the generator cycles
	// through.
	batchRing = 2048
	// offeredRate is the open-loop event rate, about half the rate at
	// which the delivery backlog starts to grow on a 2-core host.
	offeredRate = 80000.0
	// readRate is the second connection's fixed rate of GETs, alternating
	// GET /v1/devices/{id} and GET /metrics.
	readRate = 200.0
	// churnPeriod spaces the spare-device registrations and
	// unregistrations of the churn client.
	churnPeriod = 500 * time.Millisecond
	// stepInterval is the server's pause between steps (its default).
	stepInterval = 10 * time.Millisecond
)

// fleetIngest is the open-loop workload: 32-event batches at a fixed rate
// over one keep-alive connection to 96 devices of the injectable specs,
// GETs beside them on a second connection, a slow register/unregister
// churn of spare devices no event targets, and the server stepped on its
// own cadence with one engine worker.
func fleetIngest(cfg runCfg) (*result, error) {
	res := &result{tailP: 90, layer: map[string]float64{}}
	all, err := probeSpecs(examplespecs.All())
	if err != nil {
		return nil, err
	}
	specs := injectableOnly(all)
	var cases []examplespecs.Case
	for _, c := range examplespecs.All() {
		for _, s := range specs {
			if s.name == c.Name {
				cases = append(cases, c)
			}
		}
	}
	lb, devs, _, err := setupFleet(fleetserver.Config{Workers: 1, Shards: 1, StepInterval: stepInterval}, specs, ingestDevices, ingestSetups, res)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	r := newRNG(cfg.seed)
	phaseNo := 0
	var deviceSteps []float64 // per phase
	phase := func(dur time.Duration, rec *recorder) (float64, error) {
		p, err := ingestPhase(lb, devs, specs[0].name, r, dur, rec, uint64(phaseNo)<<40)
		phaseNo++
		if err != nil {
			return 0, err
		}
		deviceSteps = append(deviceSteps, p.deviceSteps)
		p.account(res)
		if rec == nil {
			res.lat = append(res.lat, p.verdict...)
			res.throughput = medianOf(p.rates)
			v := summarize(append([]sample(nil), p.verdict...), 99)
			rd := summarize(ones(p.reads), 99)
			res.note("fleet-ingest: offered %.0f events/s; %d events in %d batches, %d steps; delivered_per_s=%.1f (median of %d windows) device_steps_per_s=%.1f",
				offeredRate, weight(p.verdict), len(p.batches), len(p.marks), res.throughput, len(p.rates), p.deviceSteps/p.wall.Seconds())
			res.note("fleet-ingest: ingest_to_verdict_p50_ms=%.3f ingest_to_verdict_p99_ms=%.3f (n=%d) read_p50_ms=%.3f read_p99_ms=%.3f (n=%d) loadgen.lag_p99_ms=%.3f",
				v.P50, v.Tail, v.N, rd.P50, rd.Tail, rd.N, pctOf(p.lag, 99))
		} else {
			p.layers(res)
		}
		return p.delivered, nil
	}
	plain, err := measure(cfg, res, phase)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.layer["fleet.cpu_us_per_device_step"] = plain.cpu.Seconds() * 1e6 / deviceSteps[0]
		// One event per device step, about what the offered rate delivers.
		if err := replay(cases, 1, cfg.seed, res); err != nil {
			return nil, err
		}
	}

	// Output check: after a shutdown drain every accepted event was
	// delivered.
	if err := lb.close(); err != nil {
		return nil, err
	}
	m, err := scrapeDirect(lb.srv, mAccepted, mDelivered)
	if err != nil {
		return nil, err
	}
	res.check(m[mAccepted] == m[mDelivered], "after drain: accepted %v, delivered %v", m[mAccepted], m[mDelivered])
	return res, nil
}

// ingestBatch is one open-loop batch POST.
type ingestBatch struct {
	openLoop
	accepted int
	code     int
}

// ingestRead is one open-loop GET.
type ingestRead struct {
	openLoop
	metrics bool
	code    int
	bytes   int
}

// ingestPhaseResult is one phase of fleet-ingest.
type ingestPhaseResult struct {
	batches     []ingestBatch
	readsDone   []ingestRead
	marks       []stepMark
	engineMS    []float64
	resharded   []bool
	unregMS     []float64
	churnFails  []string
	base        uint64
	undelivered int
	delivered   float64
	deviceSteps float64
	wall        time.Duration
	// Derived samples, in milliseconds; verdict and queueWait are per
	// event.
	verdict, queueWait []sample
	reads, lag, rates  []float64
}

// account adds the phase's operations and failures to the run's tally:
// every event, GET, churn call and step attempted; non-2xx responses,
// rejected events and undelivered ones failed.
func (p *ingestPhaseResult) account(res *result) {
	for _, b := range p.batches {
		res.attempted += batchEvents
		if b.code != http.StatusOK || b.accepted != batchEvents {
			res.failures = append(res.failures, fmt.Sprintf("batch due %s: HTTP %d, %d accepted",
				b.Due.Format(time.StampMicro), b.code, b.accepted))
			res.failed += max(batchEvents-b.accepted, 1)
		}
	}
	for _, rd := range p.readsDone {
		res.attempted++
		if rd.code/100 != 2 {
			res.fail("read due %s: HTTP %d", rd.Due.Format(time.StampMicro), rd.code)
		}
	}
	res.attempted += len(p.marks) + len(p.unregMS)*2
	for _, f := range p.churnFails {
		res.fail("%s", f)
	}
	if p.undelivered > 0 {
		res.failures = append(res.failures, fmt.Sprintf("%d accepted events never delivered", p.undelivered))
		res.failed += p.undelivered
	}
}

// layers fills the fleetserver and fleet per-layer metrics of a traced
// phase.
func (p *ingestPhaseResult) layers(res *result) {
	var post, getDev, scrape, scrapeBytes, overhead, reshard, plain []float64
	for _, b := range p.batches {
		post = append(post, us(b.Done.Sub(b.Sent)))
	}
	for _, rd := range p.readsDone {
		if rd.metrics {
			scrape = append(scrape, us(rd.Done.Sub(rd.Sent)))
			scrapeBytes = append(scrapeBytes, float64(rd.bytes))
		} else {
			getDev = append(getDev, us(rd.Done.Sub(rd.Sent)))
		}
	}
	rejected := 0
	for _, b := range p.batches {
		rejected += batchEvents - b.accepted
	}
	for k, m := range p.marks {
		d := ms(m.End.Sub(m.Start))
		overhead = append(overhead, d-p.engineMS[k])
		if p.resharded[k] {
			reshard = append(reshard, d)
		} else {
			plain = append(plain, d)
		}
	}
	res.layer["fleetserver.batch_post_us"] = medianOf(post)
	res.layer["fleetserver.queue_wait_ms"] = wpercentile(p.queueWait, 50)
	res.layer["fleetserver.rejected_events"] = float64(rejected)
	res.layer["fleetserver.step_overhead_ms"] = medianOf(overhead)
	res.layer["fleetserver.scrape_us"] = medianOf(scrape)
	res.layer["fleetserver.scrape_bytes"] = medianOf(scrapeBytes)
	res.layer["fleetserver.device_get_us"] = medianOf(getDev)
	res.layer["fleetserver.read_p50_ms"] = pctOf(p.reads, 50)
	res.layer["fleetserver.read_p99_ms"] = pctOf(p.reads, 99)
	res.layer["fleetserver.unregister_ms"] = medianOf(p.unregMS)
	res.layer["fleet.step_ms"] = medianOf(p.engineMS)
	if len(reshard) > 0 {
		res.layer["fleet.reshard_ms"] = medianOf(reshard) - medianOf(plain)
	}
	res.layer["loadgen.lag_p99_ms"] = pctOf(p.lag, 99)
}

// ingestPhase runs the open-loop load for dur, then keeps stepping until
// every accepted event is delivered.
func ingestPhase(lb *loopback, devs []fleetDevice, spareSpec string, r *rng, dur time.Duration, rec *recorder, opBase uint64) (*ingestPhaseResult, error) {
	p := &ingestPhaseResult{}
	m0, err := scrapeDirect(lb.srv, mDelivered, mStepSum, mStepCount, mReshards)
	if err != nil {
		return nil, err
	}
	p.base = uint64(m0[mDelivered])

	// Inputs are drawn before the clock starts, so the generator only
	// sends. Batch i sends ring[i % batchRing], which bounds the memory the
	// inputs take at high rates.
	batchesPerSec := offeredRate / batchEvents
	period := time.Duration(float64(time.Second) / batchesPerSec)
	nBatches := int(dur / period)
	ring := make([][]byte, min(nBatches, batchRing))
	events := make([]fleetserver.Event, batchEvents)
	for i := range ring {
		for k := range events {
			events[k] = r.event(devs[r.intn(len(devs))])
		}
		ring[i] = batchBody(events)
	}
	readPeriod := time.Duration(float64(time.Second) / readRate)
	readIDs := make([]string, int(dur/readPeriod))
	for i := range readIDs {
		readIDs[i] = devs[r.intn(len(devs))].id
	}

	var wg sync.WaitGroup
	stopStepper := make(chan struct{})
	var delivered atomic.Uint64
	delivered.Store(p.base)
	var stepErr error
	t0 := time.Now()

	// The stepper drives the server exactly as its own loop does: step,
	// then pause one interval.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSum, lastCount, lastReshards := m0[mStepSum], m0[mStepCount], m0[mReshards]
		for {
			s0 := time.Now()
			sr, err := lb.srv.StepOnce(context.Background())
			s1 := time.Now()
			if err != nil {
				stepErr = err
				return
			}
			m, err := scrapeDirect(lb.srv, mDelivered, mStepSum, mStepCount, mReshards)
			if err != nil {
				stepErr = err
				return
			}
			p.marks = append(p.marks, stepMark{Start: s0, End: s1, Delivered: uint64(m[mDelivered])})
			p.engineMS = append(p.engineMS, (m[mStepSum]-lastSum)/(m[mStepCount]-lastCount)*1e3)
			p.resharded = append(p.resharded, m[mReshards] > lastReshards)
			p.deviceSteps += float64(sr.DeviceSteps)
			lastSum, lastCount, lastReshards = m[mStepSum], m[mStepCount], m[mReshards]
			delivered.Store(uint64(m[mDelivered]))
			if rec != nil {
				so := rec.add("fleetserver.step_once", s0, s1, -1, opBase|uint64(len(p.marks)))
				eng := time.Duration(p.engineMS[len(p.engineMS)-1] * 1e6)
				// Exact duration, approximate placement (see fleet-steady).
				e0 := s0.Add((s1.Sub(s0) - eng) / 2)
				rec.add("fleet.step", e0, e0.Add(eng), so, opBase|uint64(len(p.marks)))
			}
			select {
			case <-stopStepper:
				return
			case <-time.After(stepInterval):
			}
		}
	}()

	// The churn client registers a spare device, then unregisters it, one
	// call per period, on its own mostly idle connection.
	var churnErr error
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		c := newClient(lb.base)
		defer c.close()
		spare := ""
		tick := time.NewTicker(churnPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stopChurn:
				if spare != "" {
					if code, _, err := c.do("DELETE", "/v1/devices/"+spare, nil); err != nil || code != http.StatusNoContent {
						churnErr = fmt.Errorf("final unregister %s: HTTP %d: %v", spare, code, err)
					}
				}
				return
			case <-tick.C:
			}
			if spare == "" {
				code, body, err := c.do("POST", "/v1/devices", []byte(fmt.Sprintf(`{"spec":%q}`, spareSpec)))
				if err != nil {
					churnErr = err
					return
				}
				var st fleetserver.DeviceState
				if code != http.StatusCreated || json.Unmarshal(body, &st) != nil {
					p.churnFails = append(p.churnFails, fmt.Sprintf("register spare: HTTP %d", code))
					continue
				}
				spare = st.ID
				continue
			}
			u0 := time.Now()
			code, _, err := c.do("DELETE", "/v1/devices/"+spare, nil)
			if err != nil {
				churnErr = err
				return
			}
			p.unregMS = append(p.unregMS, ms(time.Since(u0)))
			if code != http.StatusNoContent {
				p.churnFails = append(p.churnFails, fmt.Sprintf("unregister %s: HTTP %d", spare, code))
			}
			spare = ""
		}
	}()

	// The reader issues GETs at a fixed rate on the second connection.
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient(lb.base)
		defer c.close()
		for i, id := range readIDs {
			o := openLoop{Due: dueAt(t0, readPeriod, i)}
			if w := time.Until(o.Due); w > 0 {
				time.Sleep(w)
			}
			path := "/v1/devices/" + id
			name := "fleetserver.device_get"
			if i%2 == 1 {
				path, name = "/metrics", "fleetserver.scrape"
			}
			o.Sent = time.Now()
			code, body, err := c.do("GET", path, nil)
			o.Done = time.Now()
			if err != nil {
				readErr = err
				return
			}
			p.readsDone = append(p.readsDone, ingestRead{openLoop: o, metrics: i%2 == 1, code: code, bytes: len(body)})
			if rec != nil {
				rec.add(name, o.Sent, o.Done, -1, opBase|1<<32|uint64(i))
			}
		}
	}()

	// The generator sends each batch when it is due over one keep-alive
	// connection; a late send counts its lateness into every latency.
	c := newClient(lb.base)
	defer c.close()
	var genErr error
	for i := 0; i < nBatches; i++ {
		body := ring[i%len(ring)]
		b := ingestBatch{openLoop: openLoop{Due: dueAt(t0, period, i)}}
		if w := time.Until(b.Due); w > 0 {
			time.Sleep(w)
		}
		b.Sent = time.Now()
		code, resp, err := c.do("POST", "/v1/events:batch", body)
		b.Done = time.Now()
		if err != nil {
			genErr = err
			break
		}
		b.code = code
		var ir fleetserver.IngestResult
		if json.Unmarshal(resp, &ir) == nil {
			b.accepted = ir.Accepted
		}
		p.batches = append(p.batches, b)
		if rec != nil {
			rec.add("fleetserver.batch_post", b.Sent, b.Done, -1, opBase|2<<32|uint64(i))
		}
	}
	p.wall = time.Since(t0)
	close(stopChurn)
	churnWG.Wait()

	// Keep stepping until everything accepted is delivered.
	var accepted uint64
	for _, b := range p.batches {
		accepted += uint64(b.accepted)
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < p.base+accepted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopStepper)
	wg.Wait()
	for _, err := range []error{genErr, readErr, stepErr, churnErr} {
		if err != nil {
			return nil, err
		}
	}

	// Attribute each accepted event to the step that delivered it.
	acc := make([]int, len(p.batches))
	for i, b := range p.batches {
		acc[i] = b.accepted
	}
	p.undelivered = attribute(acc, p.marks, p.base, func(bi, k, n int) {
		b, m := p.batches[bi], p.marks[k]
		p.verdict = append(p.verdict, sample{ms(m.End.Sub(b.Due)), n})
		p.queueWait = append(p.queueWait, sample{max(ms(m.Start.Sub(b.Done)), 0), n})
	})
	for _, b := range p.batches {
		p.lag = append(p.lag, ms(b.Lag()))
	}
	for _, rd := range p.readsDone {
		p.reads = append(p.reads, ms(rd.Latency()))
	}
	var ts []time.Time
	var work []float64
	ts, work = append(ts, t0), append(work, 0)
	for _, m := range p.marks {
		if m.End.After(t0.Add(p.wall)) {
			break // the drain after the load is not part of the rate
		}
		ts, work = append(ts, m.End), append(work, float64(m.Delivered-p.base))
	}
	p.rates = windowRates(ts, work, window)
	p.delivered = float64(delivered.Load() - p.base)
	return p, nil
}
