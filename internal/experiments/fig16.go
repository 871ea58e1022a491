package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// Fig16Row is one supply point of Figure 16: energy to complete a single
// application run.
type Fig16Row struct {
	Label    string
	Charging simclock.Duration // 0 = continuous
	Artemis  Outcome
	Mayfly   Outcome
}

// Figure16 measures energy consumption per completed run on continuous
// power and under charging delays of 1, 2, 5, and 10 minutes. The paper's
// claims: parity at continuous/1 min/2 min; beyond the MITD Mayfly's demand
// is effectively unbounded, while ARTEMIS completes at roughly three times
// its continuous-power energy (the three bounded attempts of path #2).
func Figure16(o Options) ([]Fig16Row, error) {
	o = o.withDefaults()
	type point struct {
		label string
		delay simclock.Duration
	}
	points := []point{
		{"continuous", 0},
		{"1 min", 1 * simclock.Minute},
		{"2 min", 2 * simclock.Minute},
		{"5 min", 5 * simclock.Minute},
		{"10 min", 10 * simclock.Minute},
	}
	return sweep(o, points, func(_ int, p point) (Fig16Row, error) {
		supply := continuous()
		if p.delay > 0 {
			supply = fixedDelay(o.BudgetUJ, p.delay)
		}
		_, art, err := runHealth(core.Artemis, supply, o, nil)
		if err != nil {
			return Fig16Row{}, fmt.Errorf("figure 16 (ARTEMIS, %s): %w", p.label, err)
		}
		_, may, err := runHealth(core.Mayfly, supply, o, nil)
		if err != nil {
			return Fig16Row{}, fmt.Errorf("figure 16 (Mayfly, %s): %w", p.label, err)
		}
		return Fig16Row{Label: p.label, Charging: p.delay, Artemis: art, Mayfly: may}, nil
	})
}

// TableFigure16 builds the energy-series table.
func TableFigure16(rows []Fig16Row) *trace.Table {
	t := trace.NewTable(
		"Figure 16 — energy to complete one application run",
		"supply", "ARTEMIS energy", "Mayfly energy", "ARTEMIS vs continuous")
	var baseline float64
	for _, r := range rows {
		if r.Charging == 0 {
			baseline = r.Artemis.EnergyJ
		}
	}
	for _, r := range rows {
		ratio := "-"
		if baseline > 0 && !r.Artemis.NonTerminated {
			ratio = fmt.Sprintf("%.1fx", r.Artemis.EnergyJ/baseline)
		}
		t.AddRow(
			r.Label,
			formatOutcomeEnergy(r.Artemis),
			formatOutcomeEnergy(r.Mayfly),
			ratio,
		)
	}
	return t
}
