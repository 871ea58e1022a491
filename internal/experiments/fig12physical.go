package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// Fig12PhysicalRow is one harvested-power point of the physical-model
// variant of Figure 12.
type Fig12PhysicalRow struct {
	HarvestUW float64           // harvested power, µW
	Charging  simclock.Duration // analytically expected charging time
	Artemis   Outcome
	Mayfly    Outcome
}

// physicalCap is the capacitor used by the physical Figure-12 variant:
// 220 µF charged between 1.8 V and 3.2 V holds ½·C·(V_on²−V_off²) = 770 µJ
// of usable energy per boot — close to the abstraction's 800 µJ budget.
const (
	physCapF = 220e-6
	physVMax = 5.0
	physVOn  = 3.2
	physVOff = 1.8
	physBoot = 0.5 * physCapF * (physVOn*physVOn - physVOff*physVOff) // joules
)

// Figure12Physical re-runs the Figure-12 sweep on the physical
// capacitor-plus-harvester model instead of the fixed-delay abstraction:
// the harvested power is chosen so the analytic recharge time
// E_boot / P spans the same 1–10 minute range. The qualitative crossover —
// Mayfly non-terminates once recharging outlasts the 5-minute MITD, ARTEMIS
// always completes — must match the abstract sweep, which validates using
// the abstraction everywhere else.
func Figure12Physical(o Options) ([]Fig12PhysicalRow, error) {
	o = o.withDefaults()
	minutes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return sweep(o, minutes, func(_ int, m int) (Fig12PhysicalRow, error) {
		charge := simclock.Duration(m) * simclock.Minute
		powerW := physBoot / charge.Seconds()
		supply := core.SupplyConfig{
			Kind:         core.SupplyHarvested,
			CapacitanceF: physCapF, VMax: physVMax, VOn: physVOn, VOff: physVOff,
			HarvestW: powerW,
		}
		_, art, err := runHealth(core.Artemis, supply, o, nil)
		if err != nil {
			return Fig12PhysicalRow{}, fmt.Errorf("figure 12 physical (ARTEMIS, %d min): %w", m, err)
		}
		_, may, err := runHealth(core.Mayfly, supply, o, nil)
		if err != nil {
			return Fig12PhysicalRow{}, fmt.Errorf("figure 12 physical (Mayfly, %d min): %w", m, err)
		}
		return Fig12PhysicalRow{
			HarvestUW: powerW * 1e6,
			Charging:  charge,
			Artemis:   art,
			Mayfly:    may,
		}, nil
	})
}

// TableFigure12Physical builds the physical-sweep table.
func TableFigure12Physical(rows []Fig12PhysicalRow) *trace.Table {
	t := trace.NewTable(
		"Figure 12 (physical harvester variant) — capacitor physics instead of fixed delays",
		"harvest", "recharge ≈", "ARTEMIS time", "Mayfly time")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2f µW", r.HarvestUW),
			fmt.Sprintf("%.0f min", r.Charging.Minutes()),
			formatOutcomeTime(r.Artemis),
			formatOutcomeTime(r.Mayfly),
		)
	}
	return t
}
