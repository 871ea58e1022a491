package fleetserver

import (
	"fmt"
	"io"
	"sort"

	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// latencyBuckets are the fixed step-latency histogram bounds, in seconds.
// Fixed bounds keep the exposition deterministic for a given sequence of
// observations.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// latencyHist is a minimal Prometheus-style cumulative histogram. All
// access is under Server.mu.
type latencyHist struct {
	counts []uint64
	sum    float64
	count  uint64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint64, len(latencyBuckets))}
}

func (h *latencyHist) observe(seconds float64) {
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

func (h *latencyHist) write(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s Fleet step wall time.\n# TYPE %s histogram\n", name, name); err != nil {
		return err
	}
	for i, ub := range latencyBuckets {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(ub), h.counts[i]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, h.count, name, h.sum, name, h.count)
	return err
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// WriteMetrics renders the server's Prometheus text exposition: the
// per-shard engine series cached after the last step, plus the serving
// layer's own counters (registry size, ingestion, queue backlog, verdicts,
// step latency). It reads only Server state under the lock — never the
// engine, which a shard worker may be stepping concurrently.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	shards := append([]telemetry.FleetShard(nil), s.shardStats...)
	devices := len(s.order)
	steps, reshards := s.steps, s.reshards
	ing := s.ingest
	backlog := 0
	for _, d := range s.order {
		backlog += len(d.queue)
	}
	verdicts := make(map[string]uint64, len(s.verdicts))
	for k, v := range s.verdicts {
		verdicts[k] = v
	}
	hist := latencyHist{counts: append([]uint64(nil), s.stepLat.counts...), sum: s.stepLat.sum, count: s.stepLat.count}
	s.mu.Unlock()

	if err := telemetry.FleetMetrics(w, shards); err != nil {
		return err
	}
	gauges := []struct {
		name, help string
		val        uint64
	}{
		{"artemis_fleetserver_devices", "Registered devices.", uint64(devices)},
		{"artemis_fleetserver_queue_depth", "Ingested events awaiting the next step.", uint64(backlog)},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.val); err != nil {
			return err
		}
	}
	counters := []struct {
		name, help string
		val        uint64
	}{
		{"artemis_fleetserver_steps_total", "Completed fleet steps.", steps},
		{"artemis_fleetserver_reshards_total", "Membership changes applied at a step.", reshards},
		{"artemis_fleetserver_ingest_batches_total", "Ingestion batches received.", ing.batches},
		{"artemis_fleetserver_ingest_events_total", "Events accepted onto device queues.", ing.events},
		{"artemis_fleetserver_ingest_rejected_total", "Events rejected (backpressure or bad batch).", ing.rejected},
		{"artemis_fleetserver_ingest_delivered_total", "Queued events delivered to device monitors.", ing.delivered},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.val); err != nil {
			return err
		}
	}
	if len(verdicts) > 0 {
		if _, err := fmt.Fprintf(w, "# HELP artemis_fleetserver_verdicts_total Monitor verdicts by corrective action.\n# TYPE artemis_fleetserver_verdicts_total counter\n"); err != nil {
			return err
		}
		keys := make([]string, 0, len(verdicts))
		for k := range verdicts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "artemis_fleetserver_verdicts_total{action=%q} %d\n", k, verdicts[k]); err != nil {
				return err
			}
		}
	}
	return hist.write(w, "artemis_fleetserver_step_latency_seconds")
}
