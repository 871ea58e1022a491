package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// Fig12Row is one charging-time point of Figure 12: total execution time of
// the benchmark under intermittent power, ARTEMIS vs Mayfly.
type Fig12Row struct {
	Charging simclock.Duration
	Artemis  Outcome
	Mayfly   Outcome
}

// Figure12 sweeps the charging delay and measures the total execution time
// of both systems. The paper's claim: beyond the 5-minute MITD, Mayfly
// never completes (its execution time is unbounded), while ARTEMIS's
// maxAttempt bound lets it finish at every delay.
func Figure12(o Options) ([]Fig12Row, error) {
	o = o.withDefaults()
	return sweep(o, o.ChargingDelays, func(_ int, delay simclock.Duration) (Fig12Row, error) {
		supply := fixedDelay(o.BudgetUJ, delay)
		_, art, err := runHealth(core.Artemis, supply, o, nil)
		if err != nil {
			return Fig12Row{}, fmt.Errorf("figure 12 (ARTEMIS, %v): %w", delay, err)
		}
		_, may, err := runHealth(core.Mayfly, supply, o, nil)
		if err != nil {
			return Fig12Row{}, fmt.Errorf("figure 12 (Mayfly, %v): %w", delay, err)
		}
		return Fig12Row{Charging: delay, Artemis: art, Mayfly: may}, nil
	})
}

// TableFigure12 builds the Figure-12 series as a table (render as text or
// CSV).
func TableFigure12(rows []Fig12Row) *trace.Table {
	t := trace.NewTable(
		"Figure 12 — total execution time vs charging time (ARTEMIS prevents non-termination)",
		"charging", "ARTEMIS time", "ARTEMIS reboots", "Mayfly time", "Mayfly restarts")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f min", r.Charging.Minutes()),
			formatOutcomeTime(r.Artemis),
			fmt.Sprintf("%d", r.Artemis.Reboots),
			formatOutcomeTime(r.Mayfly),
			fmt.Sprintf("%d", r.Mayfly.PathRestarts),
		)
	}
	return t
}
