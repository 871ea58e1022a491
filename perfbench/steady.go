package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

const (
	steadyDevices = 1024
	// checkCycles is the prefix of cycles whose engine digest is compared
	// against a serial reference server fed the same batches.
	checkCycles = 4
	// window is the length of one throughput window; a run reports the
	// median window.
	window = time.Second
)

// fleetSteady is the closed-loop workload: one client, 1024 devices of all
// six example specs; each cycle posts one seeded event per injectable
// device, steps the fleet once, and scrapes /metrics.
func fleetSteady(cfg runCfg) (*result, error) {
	res := &result{tailP: 90, layer: map[string]float64{}}
	cases := examplespecs.All()
	specs, err := probeSpecs(cases)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	lb, devs, firstStep, err := setupFleet(fleetserver.Config{Workers: cfg.workers, Shards: cfg.workers}, specs, steadyDevices, steadySetups, res)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	var targets []fleetDevice
	for _, d := range devs {
		if d.spec.injectable {
			targets = append(targets, d)
		}
	}
	c := newClient(lb.base)
	defer c.close()
	r := newRNG(cfg.seed)
	var checkBatches [][]fleetserver.Event
	var checkDigest uint64
	var lastSum, lastCount float64
	if m, err := scrapeDirect(lb.srv, mStepSum, mStepCount); err == nil {
		lastSum, lastCount = m[mStepSum], m[mStepCount]
	} else {
		return nil, err
	}
	cycles := 0
	var stepOnce []float64 // ms, whole run, for reshard_ms

	phase := func(dur time.Duration, rec *recorder) (float64, error) {
		var cycleT, scrapeT, postT, verdictT, overheadT, engT []float64
		var scrapeBytes []float64
		var marks []time.Time
		var work []float64
		var stepCPU, stepWall time.Duration
		start := time.Now()
		marks, work = append(marks, start), append(work, 0)
		for time.Since(start) < dur {
			events := make([]fleetserver.Event, len(targets))
			for i, d := range targets {
				events[i] = r.event(d)
			}
			body := batchBody(events)
			op := uint64(cycles)

			t0 := time.Now()
			code, resp, err := c.do("POST", "/v1/events:batch", body)
			t1 := time.Now()
			if err != nil {
				return 0, err
			}
			res.attempted += 1 + len(events)
			var ingRes fleetserver.IngestResult
			if code != http.StatusOK || json.Unmarshal(resp, &ingRes) != nil || ingRes.Accepted != len(events) {
				res.fail("cycle %d: batch POST HTTP %d: %s", cycles, code, resp)
				res.failed += len(events) - ingRes.Accepted
			}
			cpu0 := cpuTime()
			if _, err := lb.srv.StepOnce(ctx); err != nil {
				return 0, err
			}
			t2 := time.Now()
			stepCPU += cpuTime() - cpu0
			stepWall += t2.Sub(t1)
			res.attempted++
			if cycles < checkCycles {
				checkBatches = append(checkBatches, events)
				if cycles == checkCycles-1 {
					checkDigest = lb.srv.Digest()
				}
			}
			code, scrape, err := c.do("GET", "/metrics", nil)
			t3 := time.Now()
			if err != nil {
				return 0, err
			}
			res.attempted++
			if code != http.StatusOK {
				res.fail("cycle %d: scrape HTTP %d", cycles, code)
			}
			m, err := promValues(scrape, mStepSum, mStepCount)
			if err != nil {
				return 0, err
			}
			engMS := (m[mStepSum] - lastSum) / (m[mStepCount] - lastCount) * 1e3
			lastSum, lastCount = m[mStepSum], m[mStepCount]

			cycles++
			cycleT = append(cycleT, ms(t3.Sub(t0)))
			postT = append(postT, us(t1.Sub(t0)))
			verdictT = append(verdictT, ms(t2.Sub(t0)))
			scrapeT = append(scrapeT, us(t3.Sub(t2)))
			scrapeBytes = append(scrapeBytes, float64(len(scrape)))
			engT = append(engT, engMS)
			overheadT = append(overheadT, ms(t2.Sub(t1))-engMS)
			stepOnce = append(stepOnce, ms(t2.Sub(t1)))
			marks, work = append(marks, t3), append(work, work[len(work)-1]+steadyDevices)

			if rec != nil {
				cy := rec.add("client.cycle", t0, t3, -1, op)
				rec.add("fleetserver.batch_post", t0, t1, cy, op)
				so := rec.add("fleetserver.step_once", t1, t2, cy, op)
				// The engine step's duration is exact (the scrape's
				// step_latency sum); its place inside StepOnce is not.
				e0 := t1.Add((t2.Sub(t1) - time.Duration(engMS*1e6)) / 2)
				rec.add("fleet.step", e0, e0.Add(time.Duration(engMS*1e6)), so, op)
				rec.add("fleetserver.scrape", t2, t3, cy, op)
			}
		}
		rates := windowRates(marks, work, window)
		if rec == nil {
			res.lat = append(res.lat, ones(cycleT)...)
			res.throughput = medianOf(rates)
			d := summarize(ones(verdictT), 90)
			res.note("fleet-steady: %d cycles, device_steps_per_s=%.1f (median of %d windows, %.0f..%.0f) step_p50_ms=%.3f step_p90_ms=%.3f ingest_to_verdict_p50_ms=%.3f read(scrape)_p50_ms=%.3f",
				len(cycleT), res.throughput, len(rates), pctOf(rates, 0), pctOf(rates, 100), pctOf(cycleT, 50), pctOf(cycleT, 90), d.P50, pctOf(scrapeT, 50)/1e3)
			if stepWall > 0 {
				res.layer["fleet.parallel_efficiency"] = stepCPU.Seconds() / (stepWall.Seconds() * float64(cfg.workers))
			}
		} else {
			res.layer["fleetserver.batch_post_us"] = medianOf(postT)
			// Events wait for no step: this cycle's StepOnce starts as soon
			// as its POST returns.
			res.layer["fleetserver.queue_wait_ms"] = 0
			res.layer["fleetserver.step_overhead_ms"] = medianOf(overheadT)
			res.layer["fleetserver.scrape_us"] = medianOf(scrapeT)
			res.layer["fleetserver.scrape_bytes"] = medianOf(scrapeBytes)
			res.layer["fleetserver.read_p50_ms"] = pctOf(scrapeT, 50) / 1e3
			res.layer["fleetserver.read_p99_ms"] = pctOf(scrapeT, 99) / 1e3
			res.layer["fleet.step_ms"] = medianOf(engT)
		}
		return work[len(work)-1], nil
	}
	plain, err := measure(cfg, res, phase)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.layer["fleet.cpu_us_per_device_step"] = plain.cpu.Seconds() * 1e6 / plain.ops
		res.layer["fleet.reshard_ms"] = medianOf(firstStep) - medianOf(stepOnce)
		if err := replay(cases, 1, cfg.seed, res); err != nil {
			return nil, err
		}
	}

	// Output checks: the served engine's digest after the first cycles
	// equals a serial reference server's fed the same batches, and a
	// shutdown drain leaves nothing accepted undelivered.
	want, err := referenceDigest(specs, checkBatches)
	if err != nil {
		return nil, err
	}
	res.check(len(checkBatches) == checkCycles && checkDigest == want,
		"engine digest after %d cycles %016x, serial reference %016x", len(checkBatches), checkDigest, want)
	if err := lb.close(); err != nil {
		return nil, err
	}
	m, err := scrapeDirect(lb.srv, mAccepted, mDelivered, mRejected)
	if err != nil {
		return nil, err
	}
	res.check(m[mAccepted] == m[mDelivered] && m[mRejected] == 0,
		"after drain: accepted %v delivered %v rejected %v", m[mAccepted], m[mDelivered], m[mRejected])
	return res, nil
}

// referenceDigest replays registration and the given batches on a serial
// server (one shard, one worker) and returns its digest.
func referenceDigest(specs []specInfo, batches [][]fleetserver.Event) (uint64, error) {
	srv, err := fleetserver.New(fleetserver.Config{Workers: 1, Shards: 1})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	if err := registerDirect(srv, specs, steadyDevices); err != nil {
		return 0, err
	}
	ctx := context.Background()
	if _, err := srv.StepOnce(ctx); err != nil {
		return 0, err
	}
	for i, b := range batches {
		if _, err := srv.Ingest(b); err != nil {
			return 0, fmt.Errorf("reference batch %d: %w", i, err)
		}
		if _, err := srv.StepOnce(ctx); err != nil {
			return 0, err
		}
	}
	return srv.Digest(), nil
}
