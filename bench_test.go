// Package bench holds the root benchmarks: one testing.B benchmark per
// table and figure of the paper's evaluation, plus ablation benchmarks for
// the design choices DESIGN.md calls out — interpreted vs generated
// monitors, coupled vs decoupled property checking, and the cost of
// persisting monitor state on every event. They are for profiling one layer
// locally, for example
//
//	go test -run '^$' -bench SingleRunArtemis -benchmem -cpuprofile cpu.out
//
// and no gate reads their timings. The repository benchmark, and the CI
// gate on it, is perfbench (docs/PERFORMANCE.md); perf_test.go pins the
// allocations of the hot operations benchmarked here.
//
// Each FigureN benchmark regenerates that figure's full data series per
// iteration, so ns/op is the cost of reproducing the experiment; the
// figures themselves are printed once under -v via the b.Logf calls.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/codegen/gen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/experiments"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

func benchOptions() experiments.Options {
	return experiments.Options{NonTermReboots: 60}
}

func BenchmarkFigure12(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.TableFigure12(rows).Render()
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure13(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure13(res)
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure14(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.TableFigure14(rows).Render()
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure15(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure15(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.TableFigure15(rows).Render()
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure16(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure16(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.TableFigure16(rows).Render()
	}
	b.Logf("\n%s", out)
}

func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.TableTable2(rows).Render()
	}
	b.Logf("\n%s", out)
}

// BenchmarkSingleRunArtemis measures one complete benchmark-application run
// under ARTEMIS on continuous power — the unit of every figure above.
func BenchmarkSingleRunArtemis(b *testing.B) {
	benchmarkSingleRun(b, core.Artemis)
}

// BenchmarkSingleRunMayfly is the baseline counterpart.
func BenchmarkSingleRunMayfly(b *testing.B) {
	benchmarkSingleRun(b, core.Mayfly)
}

// BenchmarkOcelotRun measures the Ocelot-style freshness-enforcement
// runtime on the same workload: the per-dispatch staleness check plus the
// timestamp commit per producer, with no monitors compiled in.
func BenchmarkOcelotRun(b *testing.B) {
	benchmarkSingleRun(b, core.Ocelot)
}

func benchmarkSingleRun(b *testing.B, sys core.System) {
	benchmarkOp(b, singleRunOp(b, sys))
}

// benchmarkOp times op with allocations reported; op's setup has already
// run.
func benchmarkOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkTelemetry measures the observability tax on a complete health
// run: "off" is the zero-cost baseline (nil tracer, every hook a no-op),
// "volatile" records every event in host memory only, and "flight64"
// additionally persists each event batch through a depth-64 NVM ring —
// the full crash-resilient configuration chaos campaigns use.
func BenchmarkTelemetry(b *testing.B) {
	cases := []struct {
		name        string
		telemetry   bool
		flightDepth int
	}{
		{"off", false, 0},
		{"volatile", true, 0},
		{"flight64", true, 64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app := health.New()
				f, err := core.New(core.Config{
					System:      core.Artemis,
					Graph:       app.Graph,
					StoreKeys:   health.Keys(),
					SpecSource:  health.SpecSource,
					Supply:      core.SupplyConfig{Kind: core.SupplyContinuous},
					Telemetry:   c.telemetry,
					FlightDepth: c.flightDepth,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := f.Run()
				if err != nil || !rep.Completed {
					b.Fatalf("run failed: %v %+v", err, rep)
				}
				if c.telemetry && f.Telemetry().EventCount() == 0 {
					b.Fatal("instrumented run recorded nothing")
				}
			}
		})
	}
}

// benchEvents is a representative event stream over the benchmark alphabet.
func benchEvents(n int) []ir.Event {
	tasks := []string{"bodyTemp", "calcAvg", "accel", "send", "micSense"}
	evs := make([]ir.Event, n)
	for i := range evs {
		kind := ir.EvStart
		if i%2 == 1 {
			kind = ir.EvEnd
		}
		evs[i] = ir.Event{
			Kind: kind,
			Task: tasks[i%len(tasks)],
			Time: simclock.Time(simclock.Duration(i) * simclock.Second),
			Path: 1 + i%3,
			Data: 36.5,
		}
	}
	return evs
}

// BenchmarkAblationInterpretedMonitor measures monitor event processing
// through the IR interpreter, the reference engine the compiled one is
// tested against.
func BenchmarkAblationInterpretedMonitor(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	envs := make([]*ir.VolatileEnv, len(res.Program.Machines))
	for i, m := range res.Program.Machines {
		envs[i] = ir.NewVolatileEnv(m)
	}
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		for mi, m := range res.Program.Machines {
			if _, err := ir.Step(m, envs[mi], ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationGeneratedMonitor measures the same event processing
// through the generated Go monitors (the paper's compiled-C analogue),
// quantifying what code generation buys over interpretation.
func BenchmarkAblationGeneratedMonitor(b *testing.B) {
	steppers := gen.NewProgram()
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		for _, s := range steppers {
			s.Step(ev)
		}
	}
}

// BenchmarkAblationPersistentMonitor measures event delivery with monitor
// state in (simulated) FRAM with per-event atomic commits — the full
// power-failure-resilient path on the compiled engine every deployment
// runs — against the volatile baselines above.
func BenchmarkAblationPersistentMonitor(b *testing.B) {
	benchmarkOp(b, persistentDeliverOp(b))
}

// BenchmarkAblationCoupledCheck measures Mayfly-style inline property
// checking (one coupled pass over the constraint list), the architecture
// the paper argues against; compare with the decoupled monitor benchmarks.
func BenchmarkAblationCoupledCheck(b *testing.B) {
	app := health.New()
	constraints := mayfly.HealthConstraints()
	names := app.Graph.TaskNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		n := 0
		for _, c := range constraints {
			if c.Task == name {
				n++
			}
		}
		_ = n
	}
}

// BenchmarkSpecCompile measures the generator pipeline front half:
// specification parse + validation + lowering to IR machines.
func BenchmarkSpecCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := health.New().Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodegen measures the model-to-text back half: IR to Go source.
func BenchmarkCodegen(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(res.Program, "monitors"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts is the worker ladder for the parallel-executor
// benchmarks: serial, two workers, and one per CPU (deduplicated, so on a
// single-core machine the ladder is just 1 and 2).
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkFlipCampaign measures the bit-flip fault campaign (24 seeded
// runs) at each worker count. Flip sites are pre-drawn before fan-out, so
// the sampled faults are identical at every count.
func BenchmarkFlipCampaign(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := chaos.NewHealthFlipCampaign(5, 24, false, 0)
				camp.Workers = w
				if _, err := camp.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpecSwap measures a complete health run with an over-the-air
// spec update queued at event 2: the chunked bundle transfer, the live FSM
// migration, and the atomic activation flip, on continuous power over a
// perfect link — the end-to-end cost of reprogramming the monitors without
// restarting the application.
func BenchmarkSpecSwap(b *testing.B) {
	v1, err := health.CompiledShared()
	if err != nil {
		b.Fatal(err)
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := health.New()
		f, err := core.New(core.Config{
			System:       core.Artemis,
			Graph:        app.Graph,
			StoreKeys:    health.Keys(),
			Compiled:     v1,
			Supply:       core.SupplyConfig{Kind: core.SupplyContinuous},
			SwapCompiled: v2,
			SwapAt:       2,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			b.Fatalf("run failed: %v %+v", err, rep)
		}
		if st := f.OTA().Stats(); st.Swaps != 1 {
			b.Fatalf("swap did not happen: %+v", st)
		}
	}
}

// BenchmarkNVMWrite pins the FRAM write path — the innermost loop of every
// simulation — at zero allocations per store.
func BenchmarkNVMWrite(b *testing.B) {
	benchmarkOp(b, nvmWriteOp(b))
}

// BenchmarkNVMHash pins Memory.Hash at O(1): the digest is maintained
// incrementally on each differing-byte store, so snapshotting a 256 KiB
// image costs nothing beyond the read of one word.
func BenchmarkNVMHash(b *testing.B) {
	benchmarkOp(b, nvmHashOp(b))
}
