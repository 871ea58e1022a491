package experiments

import (
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

// TestInputFreshnessShape pins the experiment's headline contrast: past the
// 5-minute accel->send bound, Mayfly livelocks with a growing stale count
// while the Ocelot-style runtime re-collects the stale input and completes
// with zero freshness violations.
func TestInputFreshnessShape(t *testing.T) {
	rows, err := InputFreshness(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 runtimes x 2 delays)", len(rows))
	}
	byKey := map[string]FreshnessRow{}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s at %v: %d freshness violations, want 0", r.System, r.Delay, r.Violations)
		}
		byKey[r.System+"/"+r.Delay.String()] = r
	}

	// Below the bound all three runtimes complete without enforcement work.
	for _, sys := range []string{"ARTEMIS", "Mayfly", "Ocelot"} {
		r := byKey[sys+"/"+(4*simclock.Minute).String()]
		if !r.Outcome.Completed || r.Outcome.NonTerminated {
			t.Errorf("%s at 4 min should complete: %+v", sys, r.Outcome)
		}
	}

	// Above the bound the philosophies split.
	over := (6 * simclock.Minute).String()
	if r := byKey["Mayfly/"+over]; !r.Outcome.NonTerminated || r.StaleEvents == 0 {
		t.Errorf("Mayfly at 6 min should livelock with stale events: %+v", r)
	}
	oce := byKey["Ocelot/"+over]
	if !oce.Outcome.Completed || oce.Outcome.NonTerminated {
		t.Errorf("Ocelot at 6 min should complete: %+v", oce.Outcome)
	}
	if oce.ReCollections == 0 {
		t.Errorf("Ocelot at 6 min should re-collect the stale input: %+v", oce)
	}
	if r := byKey["ARTEMIS/"+over]; !r.Outcome.Completed || r.StaleEvents == 0 {
		t.Errorf("ARTEMIS at 6 min should adapt and complete: %+v", r)
	}

	out := TableInputFreshness(rows).Render()
	if !strings.Contains(out, "Ocelot") || !strings.Contains(out, "non-termination") {
		t.Errorf("render misses expected rows:\n%s", out)
	}
}
