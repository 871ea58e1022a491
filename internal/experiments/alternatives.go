package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// AlternativeRow is one monitor-deployment alternative's host-side cost on
// continuous power.
type AlternativeRow struct {
	Deployment  string
	MonitorTime simclock.Duration
	MonitorUJ   float64
	TotalTime   simclock.Duration
	TotalUJ     float64
	Completed   bool
}

// Alternatives quantifies the §7 "Implementation Alternatives" trade-off:
// on-device monitors (the default) versus monitors deployed on an external
// wireless device. The paper predicts that "wireless communication is way
// more energy-hungry compared to computation, which can result in
// significant overheads" — the numbers make the prediction concrete.
func Alternatives(o Options) ([]AlternativeRow, error) {
	o = o.withDefaults()
	type alt struct {
		name   string
		remote bool
	}
	alts := []alt{
		{"on-device monitors", false},
		{"external wireless monitors", true},
	}
	return sweep(o, alts, func(_ int, a alt) (AlternativeRow, error) {
		rep, _, err := runHealth(core.Artemis, continuous(), o, func(cfg *core.Config) {
			cfg.RemoteMonitors = a.remote
		})
		if err != nil {
			return AlternativeRow{}, fmt.Errorf("alternatives (%s): %w", a.name, err)
		}
		mon := rep.Breakdown[device.CompMonitor]
		var total device.Usage
		for _, u := range rep.Breakdown {
			total.Time += u.Time
			total.Energy += u.Energy
		}
		return AlternativeRow{
			Deployment:  a.name,
			MonitorTime: mon.Time,
			MonitorUJ:   float64(mon.Energy) * 1e6,
			TotalTime:   total.Time,
			TotalUJ:     float64(total.Energy) * 1e6,
			Completed:   rep.Completed,
		}, nil
	})
}

// TableAlternatives builds the deployment-comparison table.
func TableAlternatives(rows []AlternativeRow) *trace.Table {
	t := trace.NewTable(
		"Implementation alternatives (§7) — host-side monitoring cost, continuous power",
		"deployment", "monitor time", "monitor energy", "total time", "total energy")
	for _, r := range rows {
		t.AddRow(
			r.Deployment,
			trace.FormatMillis(r.MonitorTime),
			fmt.Sprintf("%.0f µJ", r.MonitorUJ),
			trace.FormatMillis(r.TotalTime),
			fmt.Sprintf("%.0f µJ", r.TotalUJ),
		)
	}
	return t
}
