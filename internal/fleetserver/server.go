// Package fleetserver is the serving layer over the sharded fleet stepping
// engine (internal/fleet): a long-running HTTP service hosting a registry
// of simulated intermittent devices, batched event ingestion with bounded
// per-device queues and backpressure, a background loop that reshards the
// live registry as devices come and go, Prometheus scrape, per-device live
// state, and a minimal dashboard — the shape that turns the simulator into
// a system.
//
// # Determinism
//
// A frozen registry snapshot keeps the engine's contract: stepping the same
// member list with the same queued events reproduces the same
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

	"github.com/tinysystems/artemis-go/internal/core"
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
)

// Config sizes a server.
type Config struct {
	// Shards and Workers configure every engine the server builds; <= 0
	// means one per CPU (fleet.Config semantics). Neither changes results.
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

// stepResult is the per-engine-index scratch the PostRun hook fills during
// a step. Each slot is written by exactly one shard worker and read by the
// loop after the step joins, so no lock is needed.
type stepResult struct {
	completed     bool
	nonTerminated bool
	reboots       uint64
	energyUJ      float64
	delivered     uint64
	verdicts      map[string]uint64
	fsm           map[string]string
}

// specInfo is what the server learns about a spec by probing its Config
// once at startup: whether external events can be injected (ARTEMIS
// runtime).
type specInfo struct {
	c          examplespecs.Case
	injectable bool
}

// Server hosts the fleet behind the registry/ingestion/scrape API.
type Server struct {
	cfg       Config
	specs     map[string]specInfo
	specNames []string

	mu   sync.Mutex
	cond *sync.Cond
	// devices and order are the registry; gen counts membership changes.
	devices map[string]*device
	order   []*device
	nextID  uint64
	gen     uint64
	// engine is the current reshard (nil before the first step); members
	// maps engine index -> device; engineGen is the gen it was built from.
	engine    *fleet.Engine
	members   []*device
	engineGen uint64
	// pending and results are the in-flight step's per-index scratch.
	pending  [][]Event
	results  []stepResult
	stepping bool
	closed   bool

	// Cached observability state, refreshed after each step so /metrics
	// never reads engine internals a shard worker may be mutating.
	shardStats []telemetry.FleetShard
	digest     uint64
	steps      uint64 // fleet steps across all reshards
	reshards   uint64
	stepLat    *latencyHist
	ingest     ingestCounters
	verdicts   map[string]uint64

	stop chan struct{}
	wg   sync.WaitGroup
	// stepObserver is a test hook: called with the device id on every
	// device step, from shard workers.
	stepObserver func(id string)
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
		specs:    make(map[string]specInfo, len(cases)),
		devices:  map[string]*device{},
		stepLat:  newLatencyHist(),
		verdicts: map[string]uint64{},
		stop:     make(chan struct{}),
	}
	for _, c := range cases {
		if _, dup := s.specs[c.Name]; dup {
			return nil, fmt.Errorf("fleetserver: duplicate spec name %q", c.Name)
		}
		probe, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("fleetserver: probe spec %q: %w", c.Name, err)
		}
		s.specs[c.Name] = specInfo{c: c, injectable: probe.System == core.Artemis}
		s.specNames = append(s.specNames, c.Name)
	}
	s.specNames = sortSpecNames(s.specNames)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Ingest queues a batch of events onto their devices' bounded queues, in
// batch order. It stops at the first failure — an unknown device or a full
// queue — and reports how far it got; the error tells the caller whether to
// retry later (ErrQueueFull) or fix the batch (ErrNotFound).
func (s *Server) Ingest(events []Event) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestResult{Rejected: len(events)}, ErrClosed
	}
	s.ingest.batches++
	var res IngestResult
	for i, ev := range events {
		if ev.Kind != "start" && ev.Kind != "end" {
			res.Rejected = len(events) - i
			s.ingest.rejected += uint64(res.Rejected)
			return res, fmt.Errorf("fleetserver: event %d: kind %q (want start or end)", i, ev.Kind)
		}
		d, ok := s.devices[ev.Device]
		if !ok {
			res.Rejected = len(events) - i
			s.ingest.rejected += uint64(res.Rejected)
			return res, fmt.Errorf("%w: %q (event %d)", ErrNotFound, ev.Device, i)
		}
		if !s.specs[d.spec].injectable {
			res.Rejected = len(events) - i
			s.ingest.rejected += uint64(res.Rejected)
			return res, fmt.Errorf("%w: %q runs spec %q (event %d)", ErrNotInjectable, ev.Device, d.spec, i)
		}
		if len(d.queue) >= s.cfg.QueueDepth {
			res.Rejected = len(events) - i
			s.ingest.rejected += uint64(res.Rejected)
			return res, fmt.Errorf("%w: %q at depth %d (event %d)", ErrQueueFull, ev.Device, len(d.queue), i)
		}
		d.queue = append(d.queue, ev)
		res.Accepted++
		s.ingest.events++
	}
	return res, nil
}

// rebuildLocked reshards the current registry into a fresh engine; caller
// holds s.mu. The engine digest restarts with the new membership — digests
// are per registry snapshot, not spliced across reshards.
func (s *Server) rebuildLocked() error {
	for _, od := range s.members {
		od.inEngine = false
	}
	members := make([]fleet.Member, len(s.order))
	for i, d := range s.order {
		members[i] = fleet.Member{Name: d.id, Case: s.specs[d.spec].c}
	}
	eng, err := fleet.New(fleet.Config{
		Members: members,
		Shards:  s.cfg.Shards, Workers: s.cfg.Workers,
		PostRun: s.postRun,
	})
	if err != nil {
		return err
	}
	s.engine = eng
	s.members = append(s.members[:0:0], s.order...)
	s.pending = make([][]Event, len(s.members))
	s.results = make([]stepResult, len(s.members))
	for _, d := range s.members {
		d.inEngine = true
	}
	for _, info := range eng.Snapshot().Devices {
		s.members[info.Index].shard = info.Shard
	}
	s.engineGen = s.gen
	s.reshards++
	return nil
}

// postRun is the engine hook: it runs on the shard workers after each
// device run, while the framework is live — draining the device's pending
// events into its monitor replicas (digest-covered, since the engine hashes
// the image after the hook) and snapshotting the live state the registry
// API serves. Slots in pending/results are per-index, so no locking.
func (s *Server) postRun(index int, name string, f *core.Framework, rep *core.Report) error {
	res := &s.results[index]
	res.completed = rep.Completed && !rep.NonTerminated
	res.nonTerminated = rep.NonTerminated
	res.reboots = uint64(rep.Reboots)
	res.energyUJ = float64(rep.Energy) * 1e6
	res.verdicts = map[string]uint64{}
	if st := rep.ArtemisStats; st != nil {
		for a, n := range st.Decisions {
			if n > 0 {
				res.verdicts[a.String()] += uint64(n)
			}
		}
	}
	for _, ev := range s.pending[index] {
		kind := ir.EvStart
		if ev.Kind == "end" {
			kind = ir.EvEnd
		}
		fs, _, err := f.InjectEvent(kind, ev.Task, ev.Data)
		if err != nil {
			return fmt.Errorf("inject %s(%s): %w", ev.Kind, ev.Task, err)
		}
		res.delivered++
		for _, fail := range fs {
			res.verdicts[fail.Action.String()]++
		}
	}
	res.fsm = map[string]string{}
	if mons := f.Monitors(); mons != nil {
		for _, m := range mons.Monitors() {
			res.fsm[m.Machine().Name] = m.State()
		}
	}
	if s.stepObserver != nil {
		s.stepObserver(name)
	}
	return nil
}

// StepOnce advances every registered device by one run: reshard if the
// membership changed, hand each device's queued events to its shard, step
// the engine, and fold the results back into the registry. An empty
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
	if len(s.order) == 0 {
		return fleet.StepResult{}, nil
	}
	if s.engine == nil || s.engineGen != s.gen {
		if err := s.rebuildLocked(); err != nil {
			return fleet.StepResult{}, err
		}
	}
	for i, d := range s.members {
		s.pending[i] = d.queue
		d.queue = nil
		s.results[i] = stepResult{}
	}
	s.stepping = true
	eng := s.engine
	s.mu.Unlock()

	start := time.Now()
	res, err := eng.Step(ctx)
	elapsed := time.Since(start)

	s.mu.Lock()
	s.stepping = false
	if err == nil {
		s.steps++
		s.stepLat.observe(elapsed.Seconds())
		s.shardStats = eng.ShardStats()
		s.digest = res.Digest
		snap := eng.Snapshot()
		for i, d := range s.members {
			r := &s.results[i]
			d.stats.steps++
			if r.completed {
				d.stats.completed++
			}
			if r.nonTerminated {
				d.stats.nonTerminated++
			}
			d.stats.reboots += r.reboots
			d.stats.energyUJ += r.energyUJ
			d.stats.eventsDelivered += r.delivered
			s.ingest.delivered += r.delivered
			for k, v := range r.verdicts {
				d.stats.violations[k] += v
				s.verdicts[k] += v
			}
			d.stats.fsm = r.fsm
			d.stats.lastDigest = snap.Devices[i].LastDigest
		}
	}
	s.cond.Broadcast() // unblock Unregister waiters
	return res, err
}

// Start launches the background stepping loop. The loop idles while the
// registry is empty, reshards whenever membership changed, and paces steps
// by Config.StepInterval. Stop it with Shutdown.
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

// Steps returns the number of completed fleet steps across all reshards.
func (s *Server) Steps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Digest returns the current engine's cumulative digest: the determinism
// anchor for a frozen registry snapshot (it resets when membership changes
// reshard the fleet).
func (s *Server) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.digest
}
