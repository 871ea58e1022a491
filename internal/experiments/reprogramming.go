package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// ReprogrammingRow measures one over-the-air spec update on the intermittent
// supply at a given chunk-loss rate: the adaptability cost of swapping the
// deployed monitors from the Figure-5 spec to its loosened v2 revision
// without restarting the application.
type ReprogrammingRow struct {
	// LossPct is the per-attempt drop probability on the transfer link.
	LossPct int
	// Swapped reports a clean activation of v2; otherwise the transfer ended
	// in a clean rollback with the reason in Rollback.
	Swapped  bool
	Rollback string
	// Chunks counts delivered bundle chunks, including retransmissions.
	Chunks int
	// EventsToSwap is ActivateSeq - RequestSeq: how many runtime events the
	// old spec still judged between the update request and the atomic flip.
	EventsToSwap uint64
	// RadioUJ is the transfer's radio energy; Missed counts event-sequence
	// gaps across the swap (zero = no event lost to reprogramming).
	RadioUJ float64
	Missed  int
	Outcome Outcome
}

// Reprogramming sweeps the OTA update across transfer loss rates on the
// paper's intermittent supply. Every run must end exactly-old or exactly-new;
// the sweep quantifies what loss costs in chunks, energy, and latency.
func Reprogramming(o Options) ([]ReprogrammingRow, error) {
	o = o.withDefaults()
	v2, err := health.CompiledSharedV2()
	if err != nil {
		return nil, err
	}
	losses := []float64{0, 0.10, 0.30}
	return sweep(o, losses, func(i int, loss float64) (ReprogrammingRow, error) {
		rep, out, err := runHealth(core.Artemis, fixedDelay(o.BudgetUJ, simclock.Second), o, func(cfg *core.Config) {
			cfg.SwapCompiled = v2
			cfg.SwapAt = 2
			if loss > 0 {
				// Seeded per row, so the sweep is deterministic at any
				// worker count.
				cfg.SwapLink = chaos.NewLossyLink(int64(41+i), loss, 0)
			}
		})
		if err != nil {
			return ReprogrammingRow{}, fmt.Errorf("reprogramming (%.0f%% loss): %w", 100*loss, err)
		}
		row := ReprogrammingRow{LossPct: int(100*loss + 0.5), Outcome: out}
		if st := rep.OTA; st != nil {
			row.Swapped = st.Swaps > 0
			row.Rollback = st.LastRollback
			row.Chunks = st.ChunksSent
			if row.Swapped {
				row.EventsToSwap = st.ActivateSeq - st.RequestSeq
			}
			row.RadioUJ = st.TransferEnergyUJ
			row.Missed = st.MissedEvents
		}
		return row, nil
	})
}

// TableReprogramming renders the reprogramming sweep.
func TableReprogramming(rows []ReprogrammingRow) *trace.Table {
	t := trace.NewTable(
		"Reprogramming — OTA monitor update v1 → v2 under transfer loss (800 µJ boots, 1 s recharge)",
		"chunk loss", "result", "chunks", "events to swap", "radio energy", "missed events")
	for _, r := range rows {
		result := "swapped to v2"
		events := fmt.Sprintf("%d", r.EventsToSwap)
		if !r.Swapped {
			result = fmt.Sprintf("rolled back (%s)", r.Rollback)
			events = "—"
		}
		t.AddRow(fmt.Sprintf("%d%%", r.LossPct), result,
			fmt.Sprintf("%d", r.Chunks), events,
			fmt.Sprintf("%.1f µJ", r.RadioUJ), fmt.Sprintf("%d", r.Missed))
	}
	return t
}
