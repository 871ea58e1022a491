package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// mixedFleet compiles every example case once and places n devices over
// them round-robin, named case#index.
func mixedFleet(t testing.TB, n int) []*Device {
	t.Helper()
	var specs []*Spec
	for _, c := range examplespecs.All() {
		sp, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	devices := make([]*Device, n)
	for i := range devices {
		sp := specs[i%len(specs)]
		devices[i] = &Device{Name: fmt.Sprintf("%s#%d", sp.Name, i), Spec: sp}
	}
	return devices
}

// TestFleetDigestDeterminism is the engine's core contract: the cumulative
// fleet digest is byte-identical at any shard count (and, via parallel.Map,
// any worker count), including under the race detector. Shard counts cover
// the degenerate serial case, a count that splits the case mix unevenly,
// and one shard per CPU.
func TestFleetDigestDeterminism(t *testing.T) {
	const devices, steps = 8, 2
	shardCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	var want uint64
	for i, shards := range shardCounts {
		e := New(Config{Shards: shards, Workers: 0})
		fleet := mixedFleet(t, devices)
		var last StepResult
		var err error
		for s := 0; s < steps; s++ {
			last, err = e.Step(context.Background(), fleet)
			if err != nil {
				t.Fatal(err)
			}
		}
		if last.DeviceSteps != devices {
			t.Fatalf("shards=%d: step covered %d devices, want %d", shards, last.DeviceSteps, devices)
		}
		if i == 0 {
			want = last.Digest
			if want == 0 {
				t.Fatal("fleet digest is zero — nothing was folded")
			}
			continue
		}
		if last.Digest != want {
			t.Fatalf("shards=%d: digest %#x, want %#x (shards=1)", shards, last.Digest, want)
		}
	}
}

// TestFleetShardStats checks the counters the Prometheus exporter renders:
// every device step is attributed to exactly one shard, outcomes are
// partitioned, and after the first step every shard run is served from its
// own recycled image (shard affinity) — also across a change of the device
// list, since shards and their pools live as long as the engine.
func TestFleetShardStats(t *testing.T) {
	const devices, steps = 6, 3
	e := New(Config{Shards: 2})
	fleet := mixedFleet(t, devices+1)
	for s := 0; s < steps; s++ {
		if _, err := e.Step(context.Background(), fleet[:devices]); err != nil {
			t.Fatal(err)
		}
	}
	var total, outcomes, recycled uint64
	for _, sh := range e.ShardStats() {
		total += sh.Steps
		outcomes += sh.Completed + sh.NonTerminated
		recycled += sh.Recycled
		if sh.Steps != uint64(sh.Devices*steps) {
			t.Errorf("shard %d: %d steps for %d devices over %d fleet steps", sh.Shard, sh.Steps, sh.Devices, steps)
		}
	}
	if total != devices*steps {
		t.Errorf("total device steps %d, want %d", total, devices*steps)
	}
	if outcomes != total {
		t.Errorf("outcomes %d do not partition %d device steps", outcomes, total)
	}
	// Each shard needs at most one image in flight, so only each shard's
	// very first run can miss its pool.
	if want := total - 2; recycled != want {
		t.Errorf("recycled %d runs from shard pools, want %d", recycled, want)
	}

	// One more device: the counters carry on from where they were.
	if _, err := e.Step(context.Background(), fleet); err != nil {
		t.Fatal(err)
	}
	total, recycled = 0, 0
	for _, sh := range e.ShardStats() {
		total += sh.Steps
		recycled += sh.Recycled
	}
	if want := uint64(devices*steps + devices + 1); total != want || recycled != want-2 {
		t.Errorf("after growing the fleet: %d steps, %d recycled; want %d and %d", total, recycled, want, want-2)
	}
}

// TestFleetMetricsOutput pins the exporter wiring: per-shard series appear
// with one sample per shard and deterministic ordering.
func TestFleetMetricsOutput(t *testing.T) {
	e := New(Config{Shards: 2})
	if _, err := e.Step(context.Background(), mixedFleet(t, 4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.FleetMetrics(&buf, e.ShardStats()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`artemis_fleet_shard_devices{shard="0"} 2`,
		`artemis_fleet_device_steps_total{shard="1"} 2`,
		`artemis_fleet_pool_recycled_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := telemetry.FleetMetrics(&buf2, e.ShardStats()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("metrics output is not deterministic across calls")
	}
}

// TestFleetStepCancellation cancels the context while the first device of
// a shard is being built: Step must return a clean context error and leave
// the engine's cumulative digest untouched — no partial fold from the
// device that did complete before the cancellation — so the next step
// digests exactly as a fresh engine's first step.
func TestFleetStepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	cancelling := examplespecs.Case{Name: "cancelling", Config: func() (core.Config, error) {
		calls++
		if calls == 2 { // the first run after Compile's probe
			cancel() // the shard's next device sees ctx.Err()
		}
		return examplespecs.HealthConfig()
	}}
	sp, err := Compile(cancelling)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]*Device, 4)
	for i := range fleet {
		fleet[i] = &Device{Name: fmt.Sprint(i), Spec: sp}
	}
	e := New(Config{Shards: 1, Workers: 1})
	if _, err := e.Step(ctx, fleet); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step under mid-shard cancel returned %v, want context.Canceled", err)
	}
	// The engine is still usable: a fresh context completes the step.
	got, err := e.Step(context.Background(), fleet)
	if err != nil {
		t.Fatalf("Step after recovery: %v", err)
	}
	want, err := New(Config{Shards: 1, Workers: 1}).Step(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest {
		t.Errorf("digest %#x after a cancelled step, want %#x (no partial fold)", got.Digest, want.Digest)
	}
}

// TestFleetEventDigestCoverage proves ingestion is not decorative: one
// external monitor event queued on a device changes that device's outcome
// digest, identically at any shard/worker combination, and the step
// consumes the queue and reports the delivery.
func TestFleetEventDigestCoverage(t *testing.T) {
	health, err := Compile(examplespecs.All()[0])
	if err != nil {
		t.Fatal(err)
	}
	step := func(shards, workers int, inject bool) []*Device {
		t.Helper()
		fleet := []*Device{{Name: "a", Spec: health}, {Name: "b", Spec: health}}
		if inject {
			fleet[0].Events = []Event{{Kind: ir.EvStart, Task: "send"}}
		}
		if _, err := New(Config{Shards: shards, Workers: workers}).Step(context.Background(), fleet); err != nil {
			t.Fatal(err)
		}
		return fleet
	}
	plain := step(1, 1, false)
	injected := step(1, 1, true)
	if plain[0].Digest == injected[0].Digest {
		t.Error("injected event did not change the device digest")
	}
	if plain[1].Digest != injected[1].Digest {
		t.Error("an event for device a changed device b's digest")
	}
	if d := step(2, 0, true); d[0].Digest != injected[0].Digest || d[0].Shard != 0 || d[1].Shard != 1 {
		t.Errorf("injected digest %#x on shard %d at shards=2, serial %#x", d[0].Digest, d[0].Shard, injected[0].Digest)
	}
	a := injected[0]
	if a.Delivered != 1 || a.Events != nil || injected[1].Delivered != 0 {
		t.Errorf("delivered %d (queue %v), device b %d; want 1, consumed, 0", a.Delivered, a.Events, injected[1].Delivered)
	}
	if !a.Completed || len(a.FSM) == 0 {
		t.Errorf("device outcome missing: completed=%v fsm=%v", a.Completed, a.FSM)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	broken := examplespecs.Case{Name: "broken", Config: func() (core.Config, error) {
		return core.Config{}, errors.New("no deployment")
	}}
	if _, err := Compile(broken); err == nil {
		t.Error("a case whose Config fails compiled")
	}
	e := New(Config{Shards: 16})
	if res, err := e.Step(context.Background(), nil); err != nil || res != (StepResult{}) {
		t.Errorf("empty step: %+v, %v", res, err)
	}
	if _, err := e.Step(context.Background(), mixedFleet(t, 2)); err != nil {
		t.Fatal(err)
	}
	if n := len(e.ShardStats()); n != 2 {
		t.Errorf("shards not clamped to device count: %d", n)
	}
}
