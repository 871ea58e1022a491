package telemetry

import (
	"io"
	"strconv"
)

// FleetShard is one fleet shard's cumulative counters, exported through
// FleetMetrics. The fleet engine (internal/fleet) owns the counting; this
// package owns the exposition format, next to the per-run Metrics exporter,
// so every Prometheus surface of the repository renders through one place.
type FleetShard struct {
	// Shard is the shard index; Devices the number of devices it hosts.
	Shard   int
	Devices int
	// Steps counts device runs executed by the shard; Completed and
	// NonTerminated partition their outcomes; Reboots totals the power
	// failures the shard's devices survived.
	Steps         uint64
	Completed     uint64
	NonTerminated uint64
	// Reboots totals the device reboots across the shard's runs.
	Reboots uint64
	// Recycled counts the device runs served from the shard's own FRAM
	// image pool (shard affinity working: everything after warm-up).
	Recycled uint64
}

// FleetMetrics writes a Prometheus-style text snapshot of the fleet's
// per-shard counters, in shard order. Output is fully deterministic.
func FleetMetrics(w io.Writer, shards []FleetShard) error {
	p := NewPromWriter(w)
	for _, f := range []struct {
		name, help, typ string
		value           func(FleetShard) uint64
	}{
		{"artemis_fleet_shard_devices", "Devices hosted per shard.", "gauge",
			func(s FleetShard) uint64 { return uint64(s.Devices) }},
		{"artemis_fleet_device_steps_total", "Device runs executed per shard.", "counter",
			func(s FleetShard) uint64 { return s.Steps }},
		{"artemis_fleet_completed_total", "Device runs that completed per shard.", "counter",
			func(s FleetShard) uint64 { return s.Completed }},
		{"artemis_fleet_nonterminated_total", "Device runs that exhausted their reboot or step budget per shard.", "counter",
			func(s FleetShard) uint64 { return s.NonTerminated }},
		{"artemis_fleet_reboots_total", "Device reboots observed per shard.", "counter",
			func(s FleetShard) uint64 { return s.Reboots }},
		{"artemis_fleet_pool_recycled_total", "Device runs served from the shard's recycled FRAM images.", "counter",
			func(s FleetShard) uint64 { return s.Recycled }},
	} {
		p.family(f.name, f.help, f.typ)
		for _, s := range shards {
			p.sample(f.name, "shard", strconv.Itoa(s.Shard), f.value(s))
		}
	}
	return p.Err()
}
