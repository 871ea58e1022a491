package fleetserver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

// frozenFleet registers a fixed heterogeneous mix with explicit ids and a
// fixed ingestion batch — the reproducibility fixture shared by the
// determinism tests.
func frozenFleet(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"health", "greenhouse", "health", "quickstart", "customir", "legacyspec"}
	for i, spec := range specs {
		if _, err := s.Register(fmt.Sprintf("dev-%d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Ingest([]Event{
		{Device: "dev-0", Kind: "start", Task: "send"},
		{Device: "dev-0", Kind: "end", Task: "send", Data: 1.5},
		{Device: "dev-2", Kind: "start", Task: "accel"},
		{Device: "dev-1", Kind: "end", Task: "calcMoisture", Data: 21.0},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerFrozenDigestDeterminism is the acceptance contract: a frozen
// registry snapshot with a fixed queued batch reproduces the same engine
// digest after a fixed number of steps at any shards/workers combination,
// including under the race detector.
func TestServerFrozenDigestDeterminism(t *testing.T) {
	const steps = 2
	// {8, 2}, {8, 4} and {8, 8} put more workers on the shards than a
	// small host has cores, so time-sliced workers must agree too.
	combos := []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {3, 0}, {runtime.GOMAXPROCS(0), 0}, {8, 2}, {8, 4}, {8, 8},
	}
	var want uint64
	for i, combo := range combos {
		s := frozenFleet(t, Config{Shards: combo.shards, Workers: combo.workers})
		for n := 0; n < steps; n++ {
			if _, err := s.StepOnce(context.Background()); err != nil {
				t.Fatalf("shards=%d workers=%d: %v", combo.shards, combo.workers, err)
			}
		}
		got := s.Digest()
		if got == 0 {
			t.Fatalf("shards=%d workers=%d: zero digest", combo.shards, combo.workers)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("shards=%d workers=%d: digest %#x, want %#x", combo.shards, combo.workers, got, want)
		}
	}
}

// TestServerIngestCoversDigest checks ingestion is digest-covered: the same
// frozen fleet with and without the queued batch must diverge.
func TestServerIngestCoversDigest(t *testing.T) {
	withEvents := frozenFleet(t, Config{Shards: 2})
	plain, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"health", "greenhouse", "health", "quickstart", "customir", "legacyspec"}
	for i, spec := range specs {
		if _, err := plain.Register(fmt.Sprintf("dev-%d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := withEvents.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if withEvents.Digest() == plain.Digest() {
		t.Error("queued events did not alter the fleet digest")
	}
	st, err := withEvents.Device("dev-0")
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsDelivered != 2 {
		t.Errorf("dev-0 delivered %d events, want 2", st.EventsDelivered)
	}
	if st.QueueDepth != 0 {
		t.Errorf("dev-0 queue depth %d after step, want 0", st.QueueDepth)
	}
	if len(st.FSM) == 0 {
		t.Error("dev-0 has no FSM snapshot after a step")
	}
}

// TestServerRegistryLifecycle exercises register/unregister around live
// steps and pins the delete acknowledgement: once Unregister returns, no
// later step may touch the device, so its record stops changing. Run under
// -race this also checks the loop/registry locking.
func TestServerRegistryLifecycle(t *testing.T) {
	s, err := New(Config{Shards: 2, StepInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	deleted := map[*device]uint64{} // record -> steps when deleted
	s.Start()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := s.Register(id, "health"); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				s.Ingest([]Event{{Device: id, Kind: "start", Task: "send"}})
				time.Sleep(time.Duration(w+1) * 500 * time.Microsecond)
				s.mu.Lock()
				d := s.devices[id]
				s.mu.Unlock()
				if err := s.Unregister(id); err != nil {
					t.Errorf("unregister %s: %v", id, err)
					return
				}
				s.mu.Lock()
				steps := d.stats.steps
				s.mu.Unlock()
				mu.Lock()
				deleted[d] = steps
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if n := s.DeviceCount(); n != 0 {
		t.Errorf("%d devices left after churn, want 0", n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for d, steps := range deleted {
		if d.stats.steps != steps {
			t.Errorf("device %q stepped %d times after its Unregister returned", d.Name, d.stats.steps-steps)
		}
	}
}

// blockingSpec is the health deployment, except that once armed, its first
// device build signals stepStarted and then blocks until release closes.
func blockingSpec(armed *atomic.Bool, stepStarted, release chan struct{}) examplespecs.Case {
	var once sync.Once
	return examplespecs.Case{Name: "blocking", Config: func() (core.Config, error) {
		if armed.Load() {
			once.Do(func() { close(stepStarted); <-release })
		}
		return examplespecs.HealthConfig()
	}}
}

// TestServerUnregisterDuringStep pins the ack path through a real mid-step
// delete: a slow fleet step is in flight when Unregister is called, and the
// call must block until that step finishes.
func TestServerUnregisterDuringStep(t *testing.T) {
	var armed atomic.Bool
	stepStarted := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Config{Shards: 1, Workers: 1,
		Specs: []examplespecs.Case{blockingSpec(&armed, stepStarted, release)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Register(fmt.Sprintf("d%d", i), "blocking"); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	stepDone := make(chan error, 1)
	go func() {
		_, err := s.StepOnce(context.Background())
		stepDone <- err
	}()
	<-stepStarted

	ackDone := make(chan struct{})
	go func() {
		if err := s.Unregister("d3"); err != nil {
			t.Errorf("unregister: %v", err)
		}
		close(ackDone)
	}()
	select {
	case <-ackDone:
		t.Fatal("Unregister acknowledged while the step holding the device was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-ackDone
	if err := <-stepDone; err != nil {
		t.Fatalf("step: %v", err)
	}
	// The next step runs the 3 devices left.
	if res, err := s.StepOnce(context.Background()); err != nil || res.DeviceSteps != 3 {
		t.Fatalf("step after delete: %+v, %v", res, err)
	}
	if _, err := s.Device("d3"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted device still visible: %v", err)
	}
}

// TestServerBackpressure fills a small queue and checks ErrQueueFull
// semantics: partial acceptance, rejection counting, and recovery after a
// draining step.
func TestServerBackpressure(t *testing.T) {
	s, err := New(Config{QueueDepth: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("d", "health"); err != nil {
		t.Fatal(err)
	}
	ev := Event{Device: "d", Kind: "start", Task: "send"}
	res, err := s.Ingest([]Event{ev, ev, ev, ev})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow ingest: %v", err)
	}
	if res.Accepted != 2 || res.Rejected != 2 {
		t.Errorf("accepted/rejected = %d/%d, want 2/2", res.Accepted, res.Rejected)
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Ingest([]Event{ev}); err != nil || res.Accepted != 1 {
		t.Errorf("ingest after drain: %+v, %v", res, err)
	}
	// Unknown device and bad kind are batch errors, not backpressure.
	if _, err := s.Ingest([]Event{{Device: "ghost", Kind: "start", Task: "send"}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown device: %v", err)
	}
	if _, err := s.Ingest([]Event{{Device: "d", Kind: "tick", Task: "send"}}); err == nil {
		t.Error("bad event kind accepted")
	}
}

// TestServerNotInjectable checks the ingestion guard for specs without the
// ARTEMIS runtime: rejected at the API, so a bad batch can never fail a
// fleet step.
func TestServerNotInjectable(t *testing.T) {
	mayflyHealth := examplespecs.Case{Name: "mayfly-health", Config: func() (core.Config, error) {
		cfg, err := examplespecs.HealthConfig()
		cfg.System = core.Mayfly
		return cfg, err
	}}
	s, err := New(Config{Specs: append(examplespecs.All(), mayflyHealth)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("m", "mayfly-health"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]Event{{Device: "m", Kind: "start", Task: "send"}}); !errors.Is(err, ErrNotInjectable) {
		t.Errorf("ingest to non-ARTEMIS device: %v, want ErrNotInjectable", err)
	}
	// The device still steps fine without events.
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatalf("step with non-injectable member: %v", err)
	}
}

// TestServerShutdownDrain checks the quiesce contract: events accepted
// before Shutdown are delivered by the final drain step, and all mutation
// paths reject afterwards.
func TestServerShutdownDrain(t *testing.T) {
	s, err := New(Config{Shards: 2, StepInterval: time.Hour}) // loop won't fire on its own
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("d", "health"); err != nil {
		t.Fatal(err)
	}
	s.Start()
	// The loop steps once immediately on register; wait for it so the
	// ingested batch below is still queued when Shutdown runs.
	for i := 0; s.Steps() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Ingest([]Event{{Device: "d", Kind: "start", Task: "send"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := s.Device("d")
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after shutdown, want 0 (drained)", st.QueueDepth)
	}
	if st.EventsDelivered == 0 {
		t.Error("accepted event was not delivered by the drain step")
	}
	if _, err := s.Register("late", "health"); !errors.Is(err, ErrClosed) {
		t.Errorf("register after shutdown: %v", err)
	}
	if _, err := s.Ingest([]Event{{Device: "d", Kind: "start", Task: "send"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after shutdown: %v", err)
	}
	if _, err := s.StepOnce(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("step after shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerEmptyRegistryStep checks stepping an empty registry is a no-op.
func TestServerEmptyRegistryStep(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.StepOnce(context.Background())
	if err != nil || res.DeviceSteps != 0 {
		t.Errorf("empty step: %+v, %v", res, err)
	}
	if s.Steps() != 0 {
		t.Errorf("empty step counted: %d", s.Steps())
	}
}

// TestServerConcurrentSteps steps one server from two goroutines at once:
// each step waits for the one in flight, so the result is ten whole steps
// with the digest of ten serial ones (and, under -race, no data race).
func TestServerConcurrentSteps(t *testing.T) {
	const devices, perCaller = 8, 5
	build := func() *Server {
		s, err := New(Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < devices; i++ {
			if _, err := s.Register(fmt.Sprintf("d%d", i), "health"); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	serial := build()
	for i := 0; i < 2*perCaller; i++ {
		if _, err := serial.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s := build()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := s.StepOnce(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Steps() != 2*perCaller {
		t.Errorf("%d steps, want %d", s.Steps(), 2*perCaller)
	}
	if s.Digest() != serial.Digest() {
		t.Errorf("concurrent steps digest %#x, serial %#x", s.Digest(), serial.Digest())
	}
	for _, st := range s.Devices() {
		if st.Steps != 2*perCaller {
			t.Errorf("device %s stepped %d times, want %d", st.ID, st.Steps, 2*perCaller)
		}
	}
}

// TestServerMembershipChangeKeepsShardCounters checks that the shard
// counters outlive a membership change: one engine steps every registry,
// so device steps and pool recycles keep counting where they were.
func TestServerMembershipChangeKeepsShardCounters(t *testing.T) {
	s, err := New(Config{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	totals := func() (steps, recycled uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, sh := range s.shardStats {
			steps += sh.Steps
			recycled += sh.Recycled
		}
		return steps, recycled
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Register(fmt.Sprintf("d%d", i), "health"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	steps1, recycled1 := totals()
	if _, err := s.Register("d6", "health"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	steps2, recycled2 := totals()
	// Only each shard's very first run misses its pool.
	if steps1 != 6 || recycled1 != 4 || steps2 != 13 || recycled2 != 11 {
		t.Errorf("device steps %d -> %d, recycled %d -> %d; want 6 -> 13 and 4 -> 11",
			steps1, steps2, recycled1, recycled2)
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`artemis_fleet_device_steps_total{shard="1"} 7`,
		"artemis_fleetserver_reshards_total 2",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerFailedStepKeepsEvents checks an acknowledged event survives a
// failed step: the step folds nothing and returns the event to the queue,
// and the next step delivers it once.
func TestServerFailedStepKeepsEvents(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("d", "health"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]Event{{Device: "d", Kind: "start", Task: "send"}}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.StepOnce(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("step with a cancelled context: %v, want context.Canceled", err)
	}
	if st, _ := s.Device("d"); st.QueueDepth != 1 || st.EventsDelivered != 0 || st.Steps != 0 {
		t.Errorf("after the failed step: queue %d, delivered %d, steps %d; want 1, 0, 0",
			st.QueueDepth, st.EventsDelivered, st.Steps)
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Device("d"); st.QueueDepth != 0 || st.EventsDelivered != 1 {
		t.Errorf("after the next step: queue %d, delivered %d; want 0, 1", st.QueueDepth, st.EventsDelivered)
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"artemis_fleetserver_ingest_events_total 1\n",
		"artemis_fleetserver_ingest_delivered_total 1\n",
		"artemis_fleetserver_steps_total 1\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerMidStepFailureKeepsEvents fails a step after its first device
// has run and taken its events: every member's events still go back to its
// queue, and the next step delivers each exactly once.
func TestServerMidStepFailureKeepsEvents(t *testing.T) {
	var armed atomic.Bool
	stepStarted := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Config{Shards: 1, Workers: 1,
		Specs: []examplespecs.Case{blockingSpec(&armed, stepStarted, release)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"d0", "d1"} {
		if _, err := s.Register(id, "blocking"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest([]Event{{Device: id, Kind: "start", Task: "send"}}); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	stepDone := make(chan error, 1)
	go func() {
		_, err := s.StepOnce(ctx)
		stepDone <- err
	}()
	<-stepStarted // d0's run is under way; d1 has not started
	cancel()
	close(release)
	if err := <-stepDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("step cancelled mid-way: %v, want context.Canceled", err)
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"d0", "d1"} {
		if st, _ := s.Device(id); st.QueueDepth != 0 || st.EventsDelivered != 1 || st.Steps != 1 {
			t.Errorf("%s: queue %d, delivered %d, steps %d; want 0, 1, 1", id, st.QueueDepth, st.EventsDelivered, st.Steps)
		}
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "artemis_fleetserver_ingest_delivered_total 2\n") {
		t.Errorf("metrics do not count 2 deliveries:\n%s", b.String())
	}
}
