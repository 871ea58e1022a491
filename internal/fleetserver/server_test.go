package fleetserver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
// later step may touch the device. Run under -race this also checks the
// loop/registry locking.
func TestServerRegistryLifecycle(t *testing.T) {
	s, err := New(Config{Shards: 2, StepInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	deleted := map[string]bool{}
	s.stepObserver = func(id string) {
		mu.Lock()
		defer mu.Unlock()
		if deleted[id] {
			t.Errorf("device %q stepped after its Unregister returned", id)
		}
	}
	s.Start()
	defer s.Shutdown(context.Background())

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
				if err := s.Unregister(id); err != nil {
					t.Errorf("unregister %s: %v", id, err)
					return
				}
				mu.Lock()
				deleted[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if n := s.DeviceCount(); n != 0 {
		t.Errorf("%d devices left after churn, want 0", n)
	}
}

// TestServerUnregisterDuringStep pins the ack path through a real mid-step
// delete: a slow fleet step is in flight when Unregister is called, and the
// call must block until that step finishes.
func TestServerUnregisterDuringStep(t *testing.T) {
	s, err := New(Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Register(fmt.Sprintf("d%d", i), "health"); err != nil {
			t.Fatal(err)
		}
	}
	stepStarted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.stepObserver = func(string) {
		once.Do(func() { close(stepStarted); <-release })
	}
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
	// The next step reshards to 3 devices.
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
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
