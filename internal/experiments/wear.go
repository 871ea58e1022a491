package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// WearRow reports one component's FRAM activity for a single benchmark run:
// its static footprint versus the bytes actually written (the quantity FRAM
// endurance is budgeted against).
type WearRow struct {
	System    core.System
	Component string
	Footprint int
	WearBytes int64
}

// Wear measures per-component FRAM write traffic over one complete run on
// continuous power. It extends Table 2 with the dynamic dimension the paper
// leaves to future work ("minimizing further the runtime and monitoring
// overhead", §8): components that commit on every event — the monitors —
// wear their small footprint hundreds of times over per run, which is what
// an endurance budget or a wear-levelling allocator would have to absorb.
func Wear(o Options) ([]WearRow, error) {
	o = o.withDefaults()
	systems := []core.System{core.Artemis, core.Mayfly}
	perSys, err := sweep(o, systems, func(_ int, sys core.System) ([]WearRow, error) {
		rep, _, err := runHealth(sys, continuous(), o, nil)
		if err != nil {
			return nil, fmt.Errorf("wear (%v): %w", sys, err)
		}
		var rows []WearRow
		for _, owner := range sortedKeys(rep.Footprints) {
			rows = append(rows, WearRow{
				System:    sys,
				Component: owner,
				Footprint: rep.Footprints[owner],
				WearBytes: rep.Wear[owner],
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []WearRow
	for _, rs := range perSys {
		rows = append(rows, rs...)
	}
	return rows, nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// TableWear builds the wear table.
func TableWear(rows []WearRow) *trace.Table {
	t := trace.NewTable(
		"FRAM wear per component, one benchmark run (footprint vs bytes written)",
		"system", "component", "footprint", "bytes written", "turnover")
	for _, r := range rows {
		turnover := "-"
		if r.Footprint > 0 {
			turnover = fmt.Sprintf("%.1fx", float64(r.WearBytes)/float64(r.Footprint))
		}
		t.AddRow(
			r.System.String(),
			r.Component,
			fmt.Sprintf("%d", r.Footprint),
			fmt.Sprintf("%d", r.WearBytes),
			turnover,
		)
	}
	return t
}
