package freshness_test

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// TestOcelotCompletesHealthContinuous runs the health benchmark on the
// freshness runtime under continuous power: nothing can go stale, so the
// run completes with zero enforcement activity and the same store outputs
// the other runtimes produce.
func TestOcelotCompletesHealthContinuous(t *testing.T) {
	app := health.New()
	f, err := core.New(core.Config{
		System:          core.Ocelot,
		Graph:           app.Graph,
		StoreKeys:       health.Keys(),
		FreshnessBounds: freshness.HealthBounds(),
		Supply:          core.SupplyConfig{Kind: core.SupplyContinuous},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.NonTerminated {
		t.Fatalf("run did not complete: %+v", rep.RunResult)
	}
	st := rep.FreshnessStats
	if st == nil {
		t.Fatal("no FreshnessStats on an Ocelot report")
	}
	if st.StaleDetected != 0 || st.ReCollections != 0 || st.Violations != 0 {
		t.Fatalf("continuous power must need no enforcement, got %+v", *st)
	}
	// Ocelot runs the graph as written — no monitors, so no
	// collect-constraint amplification: one round executes each path once.
	if got := f.Store().Get("tempCount"); got != 1 {
		t.Fatalf("tempCount = %v, want 1 (one bodyTemp sample per round)", got)
	}
	if got := f.Store().Get("sentCount"); got != 3 {
		t.Fatalf("sentCount = %v, want 3 (send once per path)", got)
	}
}

// TestStaleInputReCollectedOnce is the issue's crash-injected staleness
// proof: a sensor sample is collected, the consumer dies mid-execution,
// and the 10-minute charging delay ages the sample past its 5-minute
// bound — so on reboot the runtime must re-collect it exactly once before
// re-executing the consumer.
func TestStaleInputReCollectedOnce(t *testing.T) {
	senseRuns := 0
	crashed := false
	sense := &task.Task{
		Name:        "sense",
		Cycles:      500,
		Peripherals: []string{"adc"},
		Run: func(c *task.Ctx) error {
			senseRuns++
			c.Store.Set("sample", 42)
			return nil
		},
	}
	use := &task.Task{
		Name:   "use",
		Cycles: 500,
		Run: func(c *task.Ctx) error {
			if !crashed {
				crashed = true
				panic(device.PowerFailure{At: c.MCU.Now()})
			}
			c.Store.Set("out", c.Store.Get("sample")+1)
			return nil
		},
	}
	g, err := task.NewGraph(&task.Path{ID: 1, Tasks: []*task.Task{sense, use}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(core.Config{
		System:    core.Ocelot,
		Graph:     g,
		StoreKeys: []string{"sample", "out"},
		FreshnessBounds: []freshness.Bound{
			{Producer: "sense", Consumer: "use", Age: 5 * simclock.Minute},
		},
		Supply: core.SupplyConfig{
			Kind:     core.SupplyFixedDelay,
			BudgetUJ: 1e9,
			Delay:    10 * simclock.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep.RunResult)
	}
	if rep.Reboots != 1 {
		t.Fatalf("reboots = %d, want 1", rep.Reboots)
	}
	st := rep.FreshnessStats
	if st.StaleDetected != 1 || st.ReCollections != 1 {
		t.Fatalf("enforcement = %+v, want exactly one detection and one re-collection", *st)
	}
	if senseRuns != 2 {
		t.Fatalf("sense ran %d times, want 2 (initial + one re-collection)", senseRuns)
	}
	if st.Violations != 0 {
		t.Fatalf("violations = %d, want 0 by construction", st.Violations)
	}
	if got := f.Store().Get("out"); got != 43 {
		t.Fatalf("out = %v, want 43", got)
	}
}

// TestBoundValidation exercises constructor rejection of malformed bounds
// through the core facade.
func TestBoundValidation(t *testing.T) {
	app := health.New()
	cases := []freshness.Bound{
		{Producer: "nope", Consumer: "send", Age: simclock.Minute},
		{Producer: "accel", Consumer: "nope", Age: simclock.Minute},
		{Producer: "accel", Consumer: "send"}, // no age
		{Producer: "accel", Consumer: "send", Age: simclock.Minute, Path: 9},
	}
	for _, b := range cases {
		_, err := core.New(core.Config{
			System:          core.Ocelot,
			Graph:           app.Graph,
			StoreKeys:       health.Keys(),
			FreshnessBounds: []freshness.Bound{b},
			Supply:          core.SupplyConfig{Kind: core.SupplyContinuous},
		})
		if err == nil {
			t.Fatalf("bound %+v must be rejected", b)
		}
	}
}
