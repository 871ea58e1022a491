package fleetserver

import (
	"io"
	"maps"

	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// latencyBuckets are the fixed step-latency histogram bounds, in seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

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
	verdicts := maps.Clone(s.verdicts)
	stepLat := s.stepLat.Clone()
	s.mu.Unlock()

	if err := telemetry.FleetMetrics(w, shards); err != nil {
		return err
	}
	p := telemetry.NewPromWriter(w)
	p.Gauge("artemis_fleetserver_devices", "Registered devices.", uint64(devices))
	p.Gauge("artemis_fleetserver_queue_depth", "Ingested events awaiting the next step.", uint64(backlog))
	p.Counter("artemis_fleetserver_steps_total", "Completed fleet steps.", steps)
	p.Counter("artemis_fleetserver_reshards_total", "Membership changes applied at a step.", reshards)
	p.Counter("artemis_fleetserver_ingest_batches_total", "Ingestion batches received.", ing.batches)
	p.Counter("artemis_fleetserver_ingest_events_total", "Events accepted onto device queues.", ing.events)
	p.Counter("artemis_fleetserver_ingest_rejected_total", "Events rejected (backpressure or bad batch).", ing.rejected)
	p.Counter("artemis_fleetserver_ingest_delivered_total", "Queued events delivered to device monitors.", ing.delivered)
	if len(verdicts) > 0 {
		p.CounterMap("artemis_fleetserver_verdicts_total", "Monitor verdicts by corrective action.", "action", verdicts)
	}
	p.Histogram("artemis_fleetserver_step_latency_seconds", "Fleet step wall time.", stepLat)
	return p.Err()
}
