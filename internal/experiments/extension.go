package experiments

import (
	"fmt"
	"strings"

	"github.com/tinysystems/artemis-go/internal/camera"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// ExtensionRow compares the camera node with and without the §4.2.2
// energy-awareness property at one boot budget.
type ExtensionRow struct {
	BudgetUJ float64
	Plain    Outcome // capture guarded only by maxTries
	Aware    Outcome // capture additionally guarded by minEnergy
}

// Extension quantifies the energy-awareness property the paper sketches in
// §4.2.2, on the camera workload: rounds whose remaining charge cannot
// finish a ~950 µJ capture either brown out mid-capture (plain) or skip
// acquisition up front (energy-aware). The guard trades frames for uptime:
// fewer reboots, less energy, no wasted partial captures.
func Extension(o Options) ([]ExtensionRow, error) {
	o = o.withDefaults()
	// The aware spec is the app's own; the plain spec drops minEnergy.
	plainSpec := ""
	for _, line := range strings.Split(camera.SpecSource, "\n") {
		if strings.Contains(line, "minEnergy") {
			continue
		}
		plainSpec += line + "\n"
	}
	budgets := []float64{1500, 2000, 2350}
	return sweep(o, budgets, func(_ int, budget float64) (ExtensionRow, error) {
		plain, err := runCamera(plainSpec, budget, o)
		if err != nil {
			return ExtensionRow{}, fmt.Errorf("extension (plain, %g µJ): %w", budget, err)
		}
		aware, err := runCamera(camera.SpecSource, budget, o)
		if err != nil {
			return ExtensionRow{}, fmt.Errorf("extension (aware, %g µJ): %w", budget, err)
		}
		return ExtensionRow{BudgetUJ: budget, Plain: plain, Aware: aware}, nil
	})
}

func runCamera(specSrc string, budgetUJ float64, o Options) (Outcome, error) {
	cfg := core.Config{
		System:     core.Artemis,
		StoreKeys:  camera.Keys(),
		SpecSource: specSrc,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: budgetUJ, Delay: simclock.Minute,
		},
		Rounds:     4,
		MaxReboots: o.NonTermReboots,
		BuildApp: func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			app, err := camera.New(mem, 2)
			if err != nil {
				return nil, nil, err
			}
			return app.Graph, []task.Persistent{app.Chunks}, nil
		},
	}
	f, err := core.New(cfg)
	if err != nil {
		return Outcome{}, err
	}
	rep, err := f.Run()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Completed:     rep.Completed,
		NonTerminated: rep.NonTerminated,
		Elapsed:       rep.Elapsed,
		Active:        rep.Active,
		EnergyJ:       float64(rep.Energy),
		Reboots:       rep.Reboots,
	}
	if rep.ArtemisStats != nil {
		out.PathSkips = rep.ArtemisStats.PathSkips
	}
	return out, nil
}

// TableExtension builds the extension comparison table.
func TableExtension(rows []ExtensionRow) *trace.Table {
	t := trace.NewTable(
		"§4.2.2 extension — camera node, 4 rounds, with and without the minEnergy guard",
		"budget", "plain reboots", "plain energy", "aware reboots", "aware energy", "aware skips")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f µJ", r.BudgetUJ),
			fmt.Sprintf("%d", r.Plain.Reboots),
			fmt.Sprintf("%.2f mJ", r.Plain.EnergyJ*1e3),
			fmt.Sprintf("%d", r.Aware.Reboots),
			fmt.Sprintf("%.2f mJ", r.Aware.EnergyJ*1e3),
			fmt.Sprintf("%d", r.Aware.PathSkips),
		)
	}
	return t
}
