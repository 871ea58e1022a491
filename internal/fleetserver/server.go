// Package fleetserver is the serving layer over the sharded fleet stepping
// engine (internal/fleet): a long-running HTTP service hosting a registry
// of simulated intermittent devices, batched event ingestion with bounded
// per-device queues and backpressure, a background loop that steps the live
// registry as devices come and go, Prometheus scrape, per-device live state,
// and a minimal dashboard — the shape that turns the simulator into a
// system.
//
// The registry's device records are the engine's devices: each step hands
// the one engine a copy of the registration-order list, the shard workers
// write each device's outcome in place, and the step folds the outcomes
// into the records' cumulative state afterwards.
//
// # Determinism
//
// A frozen registry snapshot keeps the engine's contract: stepping the same
// device list with the same queued events reproduces the same
// fleet.Engine digest at any Shards/Workers combination, because every
// device's run is independent and its queue drains sequentially inside its
// shard in device-index order. Live mutation (register/unregister between
// steps, ingestion racing the loop) changes which snapshot each step sees —
// the per-step digests remain scheduling-independent, but the sequence of
// snapshots is wall-clock-dependent, so cross-run digest comparison is only
// meaningful for frozen snapshots (see docs/FLEET.md).
package fleetserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Registry and ingestion errors; the HTTP layer maps them to status codes.
var (
	ErrNotFound    = errors.New("fleetserver: no such device")
	ErrUnknownSpec = errors.New("fleetserver: unknown spec")
	ErrDuplicateID = errors.New("fleetserver: duplicate device id")
	ErrClosed      = errors.New("fleetserver: server is shut down")
	// ErrQueueFull reports ingestion backpressure: the target device's
	// bounded queue is at capacity until the next step drains it.
	ErrQueueFull = errors.New("fleetserver: device queue full")
	// ErrNotInjectable rejects events for devices whose spec does not run
	// the ARTEMIS runtime (no monitor replicas to deliver to). Caught at
	// ingestion so a bad batch can never fail a fleet step mid-shard.
	ErrNotInjectable = errors.New("fleetserver: device spec does not accept external events")
	// ErrUnknownTask rejects events naming a task the device's graph does
	// not have.
	ErrUnknownTask = errors.New("fleetserver: no such task")
)

// Config sizes a server.
type Config struct {
	// Shards and Workers configure the server's engine; <= 0 means one per
	// CPU (fleet.Config semantics). Neither changes results.
	Shards  int
	Workers int
	// QueueDepth bounds each device's ingestion queue; <= 0 means 256.
	// A full queue rejects further events with ErrQueueFull (HTTP 429).
	QueueDepth int
	// StepInterval paces the background loop between fleet steps; <= 0
	// means 10ms. Each step runs every registered device once.
	StepInterval time.Duration
	// Specs is the registerable deployment mix; nil means
	// examplespecs.All().
	Specs []examplespecs.Case
}

// Event is one ingested fleet event: a task-lifecycle observation reported
// by a device in the field, delivered to the server-hosted monitor replicas
// of that device on its next step.
type Event struct {
	// Device is the target device id.
	Device string `json:"device"`
	// Kind is "start" or "end" (the paper's observable event kinds).
	Kind string `json:"kind"`
	// Task is the task name the event refers to.
	Task string `json:"task"`
	// Data is the optional dependent-data value carried by end events.
	Data float64 `json:"data,omitempty"`
}

// IngestResult reports how far a batch got.
type IngestResult struct {
	// Accepted events were queued; Rejected counts the remainder of the
	// batch after the first failure (full queue or unknown device).
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// Server hosts the fleet behind the registry/ingestion/scrape API.
type Server struct {
	cfg Config
	// specs holds every registerable spec, probed and compiled once.
	specs     map[string]*fleet.Spec
	specNames []string
	// engine is only stepped by the one step in flight.
	engine *fleet.Engine

	mu   sync.Mutex
	cond *sync.Cond
	// devices and order are the registry; gen counts membership changes,
	// and stepGen is the gen the last step ran.
	devices  map[string]*device
	order    []*device
	nextID   uint64
	gen      uint64
	stepGen  uint64
	stepping bool
	closed   bool

	// Cached observability state, refreshed after each step so /metrics
	// never reads engine internals a shard worker may be mutating.
	shardStats []telemetry.FleetShard
	digest     uint64
	steps      uint64
	reshards   uint64
	stepLat    *telemetry.Histogram
	ingest     ingestCounters
	verdicts   map[string]uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

type ingestCounters struct {
	batches   uint64
	events    uint64
	rejected  uint64
	delivered uint64
}

// New assembles a server. Call Start to launch the stepping loop, or drive
// steps directly with StepOnce (tests, benchmarks).
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.StepInterval <= 0 {
		cfg.StepInterval = 10 * time.Millisecond
	}
	cases := cfg.Specs
	if cases == nil {
		cases = examplespecs.All()
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("fleetserver: empty spec list")
	}
	s := &Server{
		cfg:      cfg,
		specs:    make(map[string]*fleet.Spec, len(cases)),
		engine:   fleet.New(fleet.Config{Shards: cfg.Shards, Workers: cfg.Workers}),
		devices:  map[string]*device{},
		stepLat:  telemetry.NewHistogram(latencyBuckets),
		verdicts: map[string]uint64{},
		stop:     make(chan struct{}),
	}
	for _, c := range cases {
		if _, dup := s.specs[c.Name]; dup {
			return nil, fmt.Errorf("fleetserver: duplicate spec name %q", c.Name)
		}
		sp, err := fleet.Compile(c)
		if err != nil {
			return nil, fmt.Errorf("fleetserver: probe spec %q: %w", c.Name, err)
		}
		s.specs[c.Name] = sp
		s.specNames = append(s.specNames, c.Name)
	}
	s.specNames = sortSpecNames(s.specNames)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Ingest queues a batch of events onto their devices' bounded queues, in
// batch order. It stops at the first failure — a bad kind, an unknown
// device or task, a device that takes no events, or a full queue — and
// reports how far it got; the error tells the caller whether to retry later
// (ErrQueueFull) or fix the batch (any other).
func (s *Server) Ingest(events []Event) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestResult{Rejected: len(events)}, ErrClosed
	}
	s.ingest.batches++
	var res IngestResult
	for i, ev := range events {
		d, ok := s.devices[ev.Device]
		var err error
		switch {
		case ev.Kind != "start" && ev.Kind != "end":
			err = fmt.Errorf("fleetserver: kind %q (want start or end)", ev.Kind)
		case !ok:
			err = fmt.Errorf("%w: %q", ErrNotFound, ev.Device)
		case !d.Spec.Injectable:
			err = fmt.Errorf("%w: %q runs spec %q", ErrNotInjectable, ev.Device, d.Spec.Name)
		case !d.Spec.HasTask(ev.Task):
			err = fmt.Errorf("%w: %q on %q (spec %q)", ErrUnknownTask, ev.Task, ev.Device, d.Spec.Name)
		case len(d.queue) >= s.cfg.QueueDepth:
			err = fmt.Errorf("%w: %q at depth %d", ErrQueueFull, ev.Device, len(d.queue))
		}
		if err != nil {
			res.Rejected = len(events) - i
			s.ingest.rejected += uint64(res.Rejected)
			return res, fmt.Errorf("%w (event %d)", err, i)
		}
		kind := ir.EvStart
		if ev.Kind == "end" {
			kind = ir.EvEnd
		}
		d.queue = append(d.queue, fleet.Event{Kind: kind, Task: ev.Task, Data: ev.Data})
		res.Accepted++
		s.ingest.events++
	}
	return res, nil
}

// StepOnce advances every registered device by one run: wait for any step
// in flight, hand each device its queued events, step the engine over the
// registry, and fold the outcomes into the device records. An empty
// registry is a no-op. Tests and benchmarks drive it directly; the
// background loop is just StepOnce on a timer.
func (s *Server) StepOnce(ctx context.Context) (fleet.StepResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fleet.StepResult{}, ErrClosed
	}
	res, err := s.stepLocked(ctx)
	s.mu.Unlock()
	return res, err
}

// stepLocked runs one step; caller holds s.mu, which is released around the
// engine step and re-held after.
func (s *Server) stepLocked(ctx context.Context) (fleet.StepResult, error) {
	for s.stepping {
		s.cond.Wait()
	}
	if len(s.order) == 0 {
		return fleet.StepResult{}, nil
	}
	if s.stepGen != s.gen {
		// Digests are per registry snapshot, not spliced across
		// membership changes.
		s.engine.ResetDigest()
		s.stepGen = s.gen
		s.reshards++
	}
	members := append([]*device(nil), s.order...)
	batch := make([]*fleet.Device, len(members))
	for i, d := range members {
		d.taken, d.queue = d.queue, nil
		d.Events = d.taken
		d.stepping = true
		batch[i] = &d.Device
	}
	s.stepping = true
	s.mu.Unlock()

	start := time.Now()
	res, err := s.engine.Step(ctx, batch)
	elapsed := time.Since(start)

	s.mu.Lock()
	s.stepping = false
	if err == nil {
		s.steps++
		s.stepLat.Observe(elapsed.Seconds())
		s.shardStats = s.engine.ShardStats()
		s.digest = res.Digest
	}
	for _, d := range members {
		d.stepping = false
		if err == nil {
			s.ingest.delivered += d.Delivered
			for k, v := range d.Verdicts {
				s.verdicts[k] += v
			}
			d.fold()
		} else {
			// Nothing of a failed step is folded, so its events go back
			// ahead of any ingested since, for the next step to deliver.
			d.queue = append(d.taken, d.queue...)
		}
		d.taken = nil
	}
	s.cond.Broadcast() // unblock Unregister and step waiters
	return res, err
}

// Start launches the background stepping loop. The loop idles while the
// registry is empty and paces steps by Config.StepInterval. Stop it with
// Shutdown.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.loop()
}

func (s *Server) loop() {
	defer s.wg.Done()
	ctx := context.Background()
	for {
		s.mu.Lock()
		for !s.closed && len(s.order) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		_, err := s.stepLocked(ctx)
		s.mu.Unlock()
		_ = err // a failed step leaves counters unchanged; the loop retries
		select {
		case <-s.stop:
			return
		case <-time.After(s.cfg.StepInterval):
		}
	}
}

// Shutdown quiesces the server: new ingestion and registry mutations are
// rejected, the loop exits after its in-flight step, and any events still
// queued are drained by one final step, so the final engine digest reflects
// everything the server acknowledged. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.stop)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	// Drain: everything accepted before the close gets delivered.
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog := false
	for _, d := range s.order {
		if len(d.queue) > 0 {
			backlog = true
			break
		}
	}
	if backlog {
		if _, err := s.stepLocked(ctx); err != nil {
			return fmt.Errorf("fleetserver: drain step: %w", err)
		}
	}
	return nil
}

// Steps returns the number of completed fleet steps.
func (s *Server) Steps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Digest returns the engine's cumulative digest: the determinism anchor for
// a frozen registry snapshot (it restarts when membership changes).
func (s *Server) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.digest
}
