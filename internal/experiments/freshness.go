package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// FreshnessRow compares how one runtime handles input staleness under one
// charging delay: the benchmark's accel data must reach send within 5
// minutes, so a delay beyond that makes every reboot-separated consumption
// stale.
type FreshnessRow struct {
	System string
	Delay  simclock.Duration
	// StaleEvents counts stale-input encounters: Mayfly dispatches blocked
	// by an expired MITD (each answered with a path restart), Ocelot
	// staleness detections (each answered with a re-collection), ARTEMIS
	// monitor adaptations (path restarts + skips).
	StaleEvents int
	// ReCollections is Ocelot's enforcement work (0 for the others).
	ReCollections int
	// Violations counts consumers that actually ran on stale data: always
	// 0 for Ocelot by construction; for Mayfly the livelocked run never
	// consumes stale data either — it simply never finishes.
	Violations int
	Outcome    Outcome
}

// freshnessBudgetUJ pins this experiment's per-boot energy inside the
// window that separates the two enforcement granularities. On the
// MSP430FR5994 profile, re-collecting accel and reaching send in one boot
// costs ~975 µJ (420 µJ accel + 520 µJ BLE + CPU/commit overhead), while
// Mayfly's whole-path restart additionally re-runs filter and classify
// (~995 µJ total). At 980 µJ Ocelot's targeted re-collection fits in a
// boot but Mayfly's full restart does not — below ~975 µJ the two sensing
// peripherals cannot share any boot and freshness across a 6-minute gap
// is physically unenforceable for everyone.
const freshnessBudgetUJ = 980

// InputFreshness runs the health benchmark on all three runtimes under a
// charging delay below and above the 5-minute accel->send bound. Below the
// bound everyone completes untouched. Above it the three philosophies
// split: ARTEMIS adapts through its monitors and completes, Mayfly
// restarts the path forever (the Figure-12 non-termination, its stale
// counter growing with every retry), and the Ocelot-style runtime
// re-collects the stale input and completes with zero violations.
func InputFreshness(o Options) ([]FreshnessRow, error) {
	o = o.withDefaults()
	o.BudgetUJ = freshnessBudgetUJ
	type run struct {
		sys   core.System
		delay simclock.Duration
	}
	var runs []run
	for _, d := range []simclock.Duration{4 * simclock.Minute, 6 * simclock.Minute} {
		for _, sys := range []core.System{core.Artemis, core.Mayfly, core.Ocelot} {
			runs = append(runs, run{sys, d})
		}
	}
	return sweep(o, runs, func(_ int, r run) (FreshnessRow, error) {
		rep, out, err := runHealth(r.sys, fixedDelay(o.BudgetUJ, r.delay), o, nil)
		if err != nil {
			return FreshnessRow{}, fmt.Errorf("input freshness (%v, %v): %w", r.sys, r.delay, err)
		}
		row := FreshnessRow{System: r.sys.String(), Delay: r.delay, Outcome: out}
		switch {
		case rep.MayflyStats != nil:
			row.StaleEvents = rep.MayflyStats.FreshnessFailures
		case rep.FreshnessStats != nil:
			row.StaleEvents = rep.FreshnessStats.StaleDetected
			row.ReCollections = rep.FreshnessStats.ReCollections
			row.Violations = rep.FreshnessStats.Violations
		case rep.ArtemisStats != nil:
			row.StaleEvents = rep.ArtemisStats.PathRestarts + rep.ArtemisStats.PathSkips
		}
		return row, nil
	})
}

// TableInputFreshness builds the freshness-comparison table.
func TableInputFreshness(rows []FreshnessRow) *trace.Table {
	t := trace.NewTable(
		"Input freshness — accel->send bound 5 min vs charging delay (980 µJ/boot)",
		"runtime", "delay", "stale events", "re-collections", "violations", "total time")
	for _, r := range rows {
		t.AddRow(
			r.System,
			fmt.Sprintf("%d min", int(r.Delay.Minutes())),
			fmt.Sprintf("%d", r.StaleEvents),
			fmt.Sprintf("%d", r.ReCollections),
			fmt.Sprintf("%d", r.Violations),
			formatOutcomeTime(r.Outcome),
		)
	}
	return t
}
