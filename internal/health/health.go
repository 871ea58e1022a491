// Package health is the paper's benchmark application (§5, Figures 4–6): a
// wearable health-monitoring workload with three paths over eight tasks,
// merging on the send task.
//
//	Path 1: bodyTemp → calcAvg → heartRate → send   (body temperature)
//	Path 2: accel → filter → classify → send        (respiration rate)
//	Path 3: micSense → send                         (cough detection)
//
// Task costs mirror the evaluation's power profile: the accelerometer burst
// and the BLE transmission are the expensive operations (§5.1), so under a
// small energy budget power failures land inside accel and send — the
// scenario Figures 12, 13, and 16 are built on. The property specification
// is exactly Figure 5.
package health

import (
	"fmt"
	"sync"

	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// SpecSource is the Figure-5 property specification, verbatim.
const SpecSource = `
micSense: {
    maxTries: 10 onFail: skipPath;
}

send: {
    MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
    maxDuration: 100ms onFail: skipTask;
    collect: 1 dpTask: accel onFail: restartPath Path: 2;
    collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg {
    collect: 10 dpTask: bodyTemp onFail: restartPath;
    dpData: avgTemp Range: [36, 38] onFail: completePath;
}

accel {
    maxTries: 10 onFail: skipPath;
}
`

// SpecSourceV2 is the field revision of the Figure-5 specification used by
// the OTA reprogramming tests and experiments: the same properties over the
// same tasks and paths — so every compiled machine keeps its name and state
// shape, making ota.AutoMigration an identity map — with loosened runtime
// bounds (retry budgets up, deadlines relaxed) of the kind a deployment
// would push after observing false positives in the field.
const SpecSourceV2 = `
micSense: {
    maxTries: 12 onFail: skipPath;
}

send: {
    MITD: 6min dpTask: accel onFail: restartPath maxAttempt: 4 onFail: skipPath Path: 2;
    maxDuration: 120ms onFail: skipTask;
    collect: 1 dpTask: accel onFail: restartPath Path: 2;
    collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg {
    collect: 10 dpTask: bodyTemp onFail: restartPath;
    dpData: avgTemp Range: [36, 38] onFail: completePath;
}

accel {
    maxTries: 12 onFail: skipPath;
}
`

// Store slots used by the application.
var storeKeys = []string{
	"temp", "tempSum", "tempCount", "avgTemp",
	"accelData", "micData", "heartRate", "sentCount",
}

// App is one instance of the benchmark: a task graph plus its store schema
// and specification. Each App owns fresh task values, so multiple
// simulations never share state.
type App struct {
	Graph *task.Graph
	// BodyTemp is the simulated body temperature each bodyTemp sample is
	// centred on. The default 36.6 keeps avgTemp inside Figure 5's healthy
	// range; set ≥ 38.5 to drive the dpData emergency (completePath).
	BodyTemp float64
	// SenseTemp, when non-nil, transforms each temperature sample before
	// the task stores it: nominal is the fault-free reading and sample its
	// zero-based index. Fault-injection harnesses wrap the sensor here
	// (stuck-at, spike, dropout) without touching the task graph.
	SenseTemp func(nominal float64, sample int) float64
}

// Keys returns the store slots the application needs.
func Keys() []string {
	out := make([]string, len(storeKeys))
	copy(out, storeKeys)
	return out
}

// New builds the benchmark with a healthy simulated body temperature.
func New() *App { return NewWithTemp(36.6) }

// NewWithTemp builds the benchmark with a chosen body temperature.
func NewWithTemp(bodyTemp float64) *App {
	a := &App{BodyTemp: bodyTemp}

	bodyTemp4 := &task.Task{
		Name:        "bodyTemp",
		Cycles:      2000,
		Peripherals: []string{"adc"},
		Run: func(c *task.Ctx) error {
			// Deterministic sensor model: tiny sample-index ripple around
			// the configured temperature.
			n := c.Get("tempCount")
			sample := a.BodyTemp + 0.05*float64(int(n)%3-1)
			if a.SenseTemp != nil {
				sample = a.SenseTemp(sample, int(n))
			}
			c.Set("temp", sample)
			c.Set("tempSum", c.Get("tempSum")+sample)
			c.Set("tempCount", n+1)
			return nil
		},
	}
	calcAvg := &task.Task{
		Name:    "calcAvg",
		Cycles:  3000,
		DepData: "avgTemp",
		Run: func(c *task.Ctx) error {
			n := c.Get("tempCount")
			if n > 0 {
				c.Set("avgTemp", c.Get("tempSum")/n)
			}
			return nil
		},
	}
	heartRate := &task.Task{
		Name:   "heartRate",
		Cycles: 5000,
		Run: func(c *task.Ctx) error {
			c.Set("heartRate", 60+c.Get("avgTemp")-36.0)
			return nil
		},
	}
	accel := &task.Task{
		Name:        "accel",
		Cycles:      4000,
		Peripherals: []string{"accel"},
		Run: func(c *task.Ctx) error {
			c.Set("accelData", 1.0)
			return nil
		},
	}
	filter := &task.Task{Name: "filter", Cycles: 20000}
	classify := &task.Task{Name: "classify", Cycles: 30000}
	micSense := &task.Task{
		Name:        "micSense",
		Cycles:      3000,
		Peripherals: []string{"mic"},
		Run: func(c *task.Ctx) error {
			c.Set("micData", 1.0)
			return nil
		},
	}
	send := &task.Task{
		Name:        "send",
		Cycles:      2000,
		Peripherals: []string{"ble"},
		Run: func(c *task.Ctx) error {
			c.Set("sentCount", c.Get("sentCount")+1)
			return nil
		},
	}

	g, err := task.NewGraph(
		&task.Path{ID: 1, Tasks: []*task.Task{bodyTemp4, calcAvg, heartRate, send}},
		&task.Path{ID: 2, Tasks: []*task.Task{accel, filter, classify, send}},
		&task.Path{ID: 3, Tasks: []*task.Task{micSense, send}},
	)
	if err != nil {
		panic(fmt.Sprintf("health: graph construction bug: %v", err))
	}
	a.Graph = g
	return a
}

// Compile lowers the Figure-5 specification against this app's graph.
func (a *App) Compile() (*transform.Result, error) {
	s, err := spec.Parse(SpecSource)
	if err != nil {
		return nil, fmt.Errorf("health: %w", err)
	}
	return transform.Compile(s, transform.Options{Graph: a.Graph, DataVars: Keys()})
}

// compileV2 lowers the OTA revision of the specification against this
// app's graph.
func (a *App) compileV2() (*transform.Result, error) {
	s, err := spec.Parse(SpecSourceV2)
	if err != nil {
		return nil, fmt.Errorf("health: %w", err)
	}
	return transform.Compile(s, transform.Options{Graph: a.Graph, DataVars: Keys()})
}

// sharedCompiled caches one compiled program for the whole process. Every
// App built by this package has a topology-identical graph (same task
// names, same paths), so the same compiled result serves them all; the
// spec and graph are fixed at compile time of the package, making the
// cache sound for the process lifetime.
var sharedCompiled = sync.OnceValues(func() (*transform.Result, error) {
	return New().Compile()
})

// CompiledShared returns the process-wide compiled Figure-5 monitor
// program for handing to core.Config.Compiled. The result is immutable —
// the runtime and monitors only ever read it — so it is safe to share
// across concurrent simulations; internal/experiments race-tests this.
// Callers must not modify the returned Result.
func CompiledShared() (*transform.Result, error) { return sharedCompiled() }

var sharedCompiledV2 = sync.OnceValues(func() (*transform.Result, error) {
	return New().compileV2()
})

// CompiledSharedV2 returns the process-wide compiled OTA-revision monitor
// program, for handing to core.Config.SwapCompiled. Same immutability and
// sharing contract as CompiledShared.
func CompiledSharedV2() (*transform.Result, error) { return sharedCompiledV2() }
