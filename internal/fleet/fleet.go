// Package fleet is the sharded batch stepping engine: it advances a fleet of
// simulated intermittent devices — any mix of the example deployments in
// internal/examplespecs — one step at a time, where one device step is one
// complete application run (the unit every figure sweep is built from). It
// is the throughput substrate of the fleet server (internal/fleetserver),
// which owns the device records and passes them to every step.
//
// # Sharding and affinity
//
// Each step splits the device list into contiguous index blocks, one per
// shard. Each shard owns its working state for the life of the engine: a
// shard-local nvm.Pool recycles FRAM images only within the shard (no
// cross-CPU contention, no interleaving through a shared pool), and its
// counters only grow. A step schedules one task per shard across
// internal/parallel's bounded worker pool.
//
// # Determinism
//
// Every device run is fully independent — its own memory image, clock, and
// seeded supply — and a recycled image is indistinguishable from a fresh
// one, so a device's outcome digest does not depend on which shard ran it,
// which worker ran the shard, or how often its image was recycled. Digests
// are folded in device-index order. The fleet digest is therefore
// byte-identical at any shard and worker count; fleet_test.go holds the
// engine to that, including under the race detector.
package fleet

import (
	"context"
	"fmt"
	"runtime"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// DefaultMemBytes is the per-device FRAM image size (the MSP430FR5994's).
const DefaultMemBytes = 256 * 1024

// Config sizes an engine.
type Config struct {
	// Shards is the most device groups a step runs as units; <= 0 means
	// GOMAXPROCS. A step never uses more shards than it has devices. The
	// shard count never changes results, only scheduling granularity.
	Shards int
	// Workers bounds the goroutines stepping shards; <= 0 means one per
	// CPU. Like Shards, it never changes results.
	Workers int
}

// Spec is an example deployment prepared for fleet devices: its
// configuration builder plus the monitor program compiled once and shared
// by every device running it.
type Spec struct {
	Name string
	// Injectable reports whether the deployment runs the ARTEMIS runtime,
	// the only one with monitor replicas external events can reach.
	Injectable bool
	// tasks names every task of the deployment's graph.
	tasks    map[string]bool
	build    func() (core.Config, error)
	compiled *transform.Result
}

// HasTask reports whether the deployment's graph has the named task, the
// only tasks an external event may refer to.
func (s *Spec) HasTask(name string) bool { return s.tasks[name] }

// Compile probes the case's configuration once, records its task names and
// pre-compiles its monitor specification, so a device step skips the spec
// parse and transform. A transform.Result is immutable and safe to reuse
// across topology-identical graphs, which fresh Config() calls produce by
// construction.
func Compile(c examplespecs.Case) (*Spec, error) {
	probe, err := c.Config()
	if err != nil {
		return nil, fmt.Errorf("fleet: case %s: %w", c.Name, err)
	}
	sp := &Spec{Name: c.Name, Injectable: probe.System == core.Artemis, build: c.Config, tasks: map[string]bool{}}
	graph := probe.Graph
	if graph == nil && probe.BuildApp != nil {
		// A BuildApp case builds its graph against a device image; a
		// throwaway one is enough to name the tasks.
		if graph, _, err = probe.BuildApp(nvm.New(DefaultMemBytes)); err != nil {
			return nil, fmt.Errorf("fleet: case %s: %w", c.Name, err)
		}
	}
	if graph != nil {
		for _, name := range graph.TaskNames() {
			sp.tasks[name] = true
		}
	}
	if !sp.Injectable || probe.SpecSource == "" || probe.Graph == nil {
		return sp, nil // camera-style BuildApp cases compile per run
	}
	s, err := spec.Parse(probe.SpecSource)
	if err != nil {
		return nil, fmt.Errorf("fleet: case %s: %w", c.Name, err)
	}
	sp.compiled, err = transform.Compile(s, transform.Options{Graph: probe.Graph, DataVars: probe.StoreKeys})
	if err != nil {
		return nil, fmt.Errorf("fleet: case %s: %w", c.Name, err)
	}
	return sp, nil
}

// Event is one externally-sourced monitor event queued for a device.
type Event struct {
	Kind ir.EventKind
	Task string
	Data float64
}

// Device is one fleet member. The caller owns it and passes it to every
// Step; during a step only its shard worker touches it.
type Device struct {
	Name string
	Spec *Spec
	// Events are delivered to the device's monitors after its next run,
	// before its digest is taken, so they are digest-covered. The step
	// clears the list.
	Events []Event

	// The outcome of the device's last step, written by its shard worker.
	// Digest covers the final FRAM image and the run's visible outcome;
	// Shard is where the device ran; Delivered counts the Events; Verdicts
	// counts corrective actions by name (run decisions plus verdicts from
	// the Events); FSM maps each monitor machine to its final state.
	Digest        uint64
	Shard         int
	Completed     bool
	NonTerminated bool
	Reboots       uint64
	EnergyUJ      float64
	Delivered     uint64
	Verdicts      map[string]uint64
	FSM           map[string]string
}

// shard owns one device block per step and all state its steps touch.
type shard struct {
	index int
	// pool recycles this shard's FRAM images; nobody else gets them.
	pool *nvm.Pool
	// stats accumulates across steps; read back via Engine.ShardStats.
	stats telemetry.FleetShard
}

// Engine steps fleets of caller-owned devices, one step at a time: Step is
// not safe for concurrent use.
type Engine struct {
	maxShards int
	workers   int
	// shards grow on demand up to maxShards and live as long as the engine.
	shards []*shard
	// digest folds every device digest of every step since the last
	// ResetDigest, in (step, device-index) order.
	digest uint64
}

// New assembles an engine.
func New(cfg Config) *Engine {
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &Engine{maxShards: shards, workers: cfg.Workers}
}

// ResetDigest restarts the cumulative digest, for a caller whose device
// list changed: a digest describes one device list, not a splice of several.
func (e *Engine) ResetDigest() { e.digest = 0 }

// StepResult summarises one fleet step.
type StepResult struct {
	// DeviceSteps is the number of device runs this step (the fleet size).
	DeviceSteps int
	// Digest is the cumulative engine digest after the step: every device
	// outcome of every step since the last ResetDigest, folded in (step,
	// device-index) order. Identical at any shard and worker count.
	Digest uint64
}

// Step advances every device by one run. The list is split into contiguous
// blocks, one per shard; shards step concurrently, and devices within a
// shard step sequentially on the shard's own images. An error (which the
// example cases never produce) aborts the step and leaves the shard
// counters and device outcomes mid-step; the digest is not advanced.
func (e *Engine) Step(ctx context.Context, devices []*Device) (StepResult, error) {
	n := len(devices)
	k := min(e.maxShards, n)
	for len(e.shards) < k {
		i := len(e.shards)
		e.shards = append(e.shards, &shard{
			index: i,
			pool:  nvm.NewPool(DefaultMemBytes),
			stats: telemetry.FleetShard{Shard: i},
		})
	}
	for _, sh := range e.shards[k:] {
		sh.stats.Devices = 0
	}
	_, err := parallel.Map(ctx, e.shards[:k], e.workers,
		func(ctx context.Context, s int, sh *shard) (struct{}, error) {
			return struct{}{}, sh.step(ctx, devices[s*n/k:(s+1)*n/k])
		})
	if err != nil {
		return StepResult{}, err
	}
	for _, d := range devices {
		e.digest = mix(e.digest, d.Digest)
	}
	return StepResult{DeviceSteps: n, Digest: e.digest}, nil
}

// ShardStats snapshots every shard's cumulative counters, in shard order.
// Devices is each shard's block size in the last step. Must not run
// concurrently with Step.
func (e *Engine) ShardStats() []telemetry.FleetShard {
	out := make([]telemetry.FleetShard, len(e.shards))
	for i, sh := range e.shards {
		out[i] = sh.stats
	}
	return out
}

// step runs every device of the block once, in index order.
func (sh *shard) step(ctx context.Context, devices []*Device) error {
	sh.stats.Devices = len(devices)
	for _, d := range devices {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sh.stepDevice(d); err != nil {
			return fmt.Errorf("fleet: %s: %w", d.Name, err)
		}
	}
	return nil
}

// stepDevice executes one device run on a shard-owned image, delivers the
// device's queued events, and writes its outcome.
func (sh *shard) stepDevice(d *Device) error {
	cfg, err := d.Spec.build()
	if err != nil {
		return err
	}
	if d.Spec.compiled != nil && cfg.Compiled == nil {
		cfg.Compiled, cfg.SpecSource = d.Spec.compiled, ""
	}
	if sh.pool.Free() > 0 {
		sh.stats.Recycled++
	}
	mem := sh.pool.Get()
	defer sh.pool.Put(mem)
	cfg.Mem = mem
	f, err := core.New(cfg)
	if err != nil {
		return err
	}
	rep, err := f.Run()
	if err != nil {
		return err
	}

	clear(d.Verdicts)
	if st := rep.ArtemisStats; st != nil {
		for a, n := range st.Decisions {
			if n > 0 {
				d.verdict(a.String(), uint64(n))
			}
		}
	}
	// Events land in the image before the hash below, so the monitor
	// state they change is digest-covered.
	for _, ev := range d.Events {
		fs, _, err := f.InjectEvent(ev.Kind, ev.Task, ev.Data)
		if err != nil {
			return fmt.Errorf("inject %s(%s): %w", ev.Kind, ev.Task, err)
		}
		for _, fail := range fs {
			d.verdict(fail.Action.String(), 1)
		}
	}
	d.Delivered = uint64(len(d.Events))
	d.Events = nil
	clear(d.FSM)
	if mons := f.Monitors(); mons != nil {
		if d.FSM == nil {
			d.FSM = map[string]string{}
		}
		for _, m := range mons.Monitors() {
			d.FSM[m.Machine().Name] = m.State()
		}
	}

	// The digest covers the final FRAM image (the memory's incremental
	// hash, which includes every committed store slot and monitor state)
	// plus the run's externally visible outcome.
	digest := mem.Hash()
	digest = mix(digest, uint64(rep.Reboots))
	digest = mix(digest, uint64(rep.Elapsed))
	switch {
	case rep.NonTerminated:
		digest = mix(digest, 2)
		sh.stats.NonTerminated++
	case rep.Completed:
		digest = mix(digest, 1)
		sh.stats.Completed++
	}
	sh.stats.Steps++
	sh.stats.Reboots += uint64(rep.Reboots)

	d.Digest = digest
	d.Shard = sh.index
	d.Completed = rep.Completed && !rep.NonTerminated
	d.NonTerminated = rep.NonTerminated
	d.Reboots = uint64(rep.Reboots)
	d.EnergyUJ = float64(rep.Energy) * 1e6
	return nil
}

// verdict counts n corrective actions of one kind in the device's outcome.
func (d *Device) verdict(action string, n uint64) {
	if d.Verdicts == nil {
		d.Verdicts = map[string]uint64{}
	}
	d.Verdicts[action] += n
}

// mix folds v into d with a splitmix64-style finaliser; non-commutative, so
// fold order is part of the digest.
func mix(d, v uint64) uint64 {
	x := d ^ (v + 0x9e3779b97f4a7c15 + (d << 6) + (d >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
