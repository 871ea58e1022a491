// Allocation pins. Allocation counts have no timing noise, so they are
// pinned here, as exact-enough budgets checked by `go test ./...`, while
// wall-clock performance is the perfbench gate's job (docs/PERFORMANCE.md).
// Each row measures one operation with testing.AllocsPerRun; the root
// benchmarks in bench_test.go run the same operations under -benchmem.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// singleRunOp returns one complete health run under sys on continuous
// power. The spec compiles once per process (sweeps share it the same way),
// so an op is deployment assembly plus the run, on a pool-recycled NVM
// image.
func singleRunOp(tb testing.TB, sys core.System) func() {
	var compiled *transform.Result
	if sys == core.Artemis {
		var err error
		if compiled, err = health.CompiledShared(); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		app := health.New()
		cfg := core.Config{
			System:    sys,
			Graph:     app.Graph,
			StoreKeys: health.Keys(),
			Compiled:  compiled,
			Supply:    core.SupplyConfig{Kind: core.SupplyContinuous},
		}
		switch sys {
		case core.Mayfly:
			cfg.Constraints = mayfly.HealthConstraints()
		case core.Ocelot:
			cfg.FreshnessBounds = freshness.HealthBounds()
		}
		f, err := core.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			tb.Fatalf("run failed: %v %+v", err, rep)
		}
		f.Release()
	}
}

// persistentDeliverOp returns one event delivery to the health monitor set
// with its state in NVM and an atomic commit per event: the path every
// deployment runs.
func persistentDeliverOp(tb testing.TB) func() {
	res, err := health.New().Compile()
	if err != nil {
		tb.Fatal(err)
	}
	set, err := monitor.NewSet(nvm.New(256*1024), res)
	if err != nil {
		tb.Fatal(err)
	}
	set.Reset()
	evs := benchEvents(64)
	var seq uint64
	return func() {
		seq++
		if _, err := set.Deliver(monitor.Event{Event: evs[seq%uint64(len(evs))], Seq: seq}); err != nil {
			tb.Fatal(err)
		}
	}
}

// nvmWriteOp returns three FRAM stores of different widths, the innermost
// loop of every simulation.
func nvmWriteOp(testing.TB) func() {
	reg := nvm.New(4096).MustAlloc("bench", "scratch", 64)
	var i uint64
	return func() {
		i++
		reg.WriteUint64(0, i)
		reg.SetByteAt(16, byte(i))
		reg.Put32(24, uint32(i))
	}
}

// hashSink keeps nvmHashOp's call from being optimised away.
var hashSink uint64

// nvmHashOp returns one Memory.Hash of a 256 KiB image. The digest is kept
// up to date on each differing-byte store, so this reads one word.
func nvmHashOp(testing.TB) func() {
	mem := nvm.New(256 * 1024)
	mem.MustAlloc("bench", "scratch", 64).WriteUint64(0, 0xdeadbeef)
	return func() { hashSink ^= mem.Hash() }
}

// fleetStepOp returns one serial step of a 16-device fleet of all example
// specs, placed round-robin, over 8 shards.
func fleetStepOp(tb testing.TB) func() {
	cases := examplespecs.All()
	devices := make([]*fleet.Device, 16)
	for i := range devices {
		sp, err := fleet.Compile(cases[i%len(cases)])
		if err != nil {
			tb.Fatal(err)
		}
		devices[i] = &fleet.Device{Name: fmt.Sprint(i), Spec: sp}
	}
	eng := fleet.New(fleet.Config{Shards: 8, Workers: 1})
	return func() {
		if _, err := eng.Step(context.Background(), devices); err != nil {
			tb.Fatal(err)
		}
	}
}

// ingestBatchOp returns one POST /v1/events:batch of 16 events to 8 health
// devices through the server's HTTP handler, request and recorder included.
// Two events per device per op fit 128 ops into the 256-deep queues, so the
// server never answers 429 while the pin measures.
func ingestBatchOp(tb testing.TB) func() {
	s, err := fleetserver.New(fleetserver.Config{Shards: 4, QueueDepth: 256})
	if err != nil {
		tb.Fatal(err)
	}
	const devices, batch = 8, 16
	for i := 0; i < devices; i++ {
		if _, err := s.Register(fmt.Sprintf("dev-%d", i), "health"); err != nil {
			tb.Fatal(err)
		}
	}
	var body bytes.Buffer
	body.WriteString(`{"events":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"device":"dev-%d","kind":"start","task":"send"}`, i%devices)
	}
	body.WriteString(`]}`)
	payload := body.Bytes()
	h := s.Handler()
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events:batch", bytes.NewReader(payload)))
		if rec.Code != 200 {
			tb.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
		}
	}
}

// allocToolchain is the Go release the budgets below were measured with
// (go1.24.0). Allocation counts through net/http, encoding/json and the
// runtime change between releases, so the budgets hold only for it.
const allocToolchain = "go1.24"

// TestAllocBudgets pins the allocations of each operation. A budget is at
// most 1.25× the count measured when it was set (noted per row), and a
// zero stays exactly zero. Where 1.25× would absorb one extra allocation
// per event of the op, the budget is lower, so such a leak always fails.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if v := runtime.Version(); !strings.HasPrefix(v, allocToolchain+".") {
		t.Skipf("budgets were measured with %s, this is %s", allocToolchain, v)
	}
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	pins := []struct {
		name   string
		runs   int
		budget float64 // the trailing comment is the count measured when it was set
		op     func(testing.TB) func()
	}{
		{"SingleRunArtemis", 20, 120, func(tb testing.TB) func() { return singleRunOp(tb, core.Artemis) }}, // 96
		{"SingleRunMayfly", 20, 175, func(tb testing.TB) func() { return singleRunOp(tb, core.Mayfly) }},   // 140
		{"OcelotRun", 20, 87, func(tb testing.TB) func() { return singleRunOp(tb, core.Ocelot) }},          // 70
		{"AblationPersistentMonitor", 200, 0, persistentDeliverOp},                                         // 0
		{"NVMWrite", 200, 0, nvmWriteOp},                // 0
		{"NVMHash", 200, 0, nvmHashOp},                  // 0
		{"FleetStep16Devices", 10, 3377, fleetStepOp},   // 2702
		{"IngestBatch16Events", 50, 100, ingestBatchOp}, // 92
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			op := p.op(t)
			op() // warm pools and one-time lazy state before measuring
			got := testing.AllocsPerRun(p.runs, op)
			t.Logf("%.0f allocs/op (budget %.0f)", got, p.budget)
			if got > p.budget {
				t.Errorf("%s allocates %.0f times per op, budget is %.0f: "+
					"profile the op as docs/PERFORMANCE.md describes", p.name, got, p.budget)
			}
		})
	}
}
