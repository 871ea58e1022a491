package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// OverheadRow is one system's component-attributed execution time on
// continuous power — the bars of Figures 14 and 15.
type OverheadRow struct {
	System   core.System
	AppLogic simclock.Duration
	Runtime  simclock.Duration
	Monitor  simclock.Duration
	Total    simclock.Duration
}

// Figure14 measures the benchmark's execution time on continuous power with
// per-component attribution. The paper's claim: application logic dominates
// and the overall times of ARTEMIS and Mayfly are nearly identical.
func Figure14(o Options) ([]OverheadRow, error) {
	o = o.withDefaults()
	systems := []core.System{core.Artemis, core.Mayfly}
	return sweep(o, systems, func(_ int, sys core.System) (OverheadRow, error) {
		rep, _, err := runHealth(sys, continuous(), o, nil)
		if err != nil {
			return OverheadRow{}, fmt.Errorf("figure 14 (%v): %w", sys, err)
		}
		if !rep.Completed {
			return OverheadRow{}, fmt.Errorf("figure 14 (%v): did not complete on continuous power", sys)
		}
		row := OverheadRow{
			System:   sys,
			AppLogic: rep.Breakdown[device.CompApp].Time,
			Runtime:  rep.Breakdown[device.CompRuntime].Time,
			Monitor:  rep.Breakdown[device.CompMonitor].Time,
		}
		row.Total = row.AppLogic + row.Runtime + row.Monitor
		return row, nil
	})
}

// Figure15 is the millisecond-scale detail view of the same run: only the
// runtime and monitoring overheads. The paper's claim: ARTEMIS pays a
// slightly higher (but negligible) overhead than Mayfly for its decoupled
// monitors.
func Figure15(o Options) ([]OverheadRow, error) {
	return Figure14(o) // same measurement, different rendering scale
}

// TableFigure14 builds the seconds-scale breakdown table.
func TableFigure14(rows []OverheadRow) *trace.Table {
	t := trace.NewTable(
		"Figure 14 — execution time and overheads on continuous power",
		"system", "app logic", "runtime", "monitor", "total")
	for _, r := range rows {
		t.AddRow(
			r.System.String(),
			trace.FormatDuration(r.AppLogic),
			trace.FormatDuration(r.Runtime),
			trace.FormatDuration(r.Monitor),
			trace.FormatDuration(r.Total),
		)
	}
	return t
}

// TableFigure15 builds the millisecond-scale overhead table.
func TableFigure15(rows []OverheadRow) *trace.Table {
	t := trace.NewTable(
		"Figure 15 — overhead detail (milliseconds)",
		"system", "runtime overhead", "monitor overhead", "combined")
	for _, r := range rows {
		t.AddRow(
			r.System.String(),
			trace.FormatMillis(r.Runtime),
			trace.FormatMillis(r.Monitor),
			trace.FormatMillis(r.Runtime+r.Monitor),
		)
	}
	return t
}
