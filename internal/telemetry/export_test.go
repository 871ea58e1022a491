package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// populate emits a small representative run into tr.
func populate(tr *Tracer) {
	tr.Boot(0, 0)
	tr.TaskStart("sense", 1, 100)
	tr.TaskEnd("sense", 1, 300, 36.6)
	tr.TaskCommit("sense", 1, 300)
	tr.MonitorTransition("maxTries_sense", "s0", "s1", 300)
	tr.TaskStart("send", 1, 400)
	tr.PowerFailure(500)
	tr.EnergyCharge(1500, simclock.Duration(1000), 800)
	tr.Boot(1, 1500)
	tr.TaskStart("send", 1, 1600)
	tr.PropertyFail("maxTries_send", "restartPath", 1, 1700)
	tr.ActionTaken("restartPath", "maxTries_send", 1, 1700)
	tr.ScrubRepair("shadowRestore", "store.grp", 1800)
	tr.TaskEnd("send", 1, 1900, 1)
	tr.TaskCommit("send", 1, 1900)
	tr.CommitFlip()
	tr.CommitFlip()
}

func TestChromeTraceValidDeterministic(t *testing.T) {
	tr := New()
	populate(tr)
	var a, b bytes.Buffer
	if err := tr.ChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("ChromeTrace is not byte-deterministic across exports")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Every B on each track must have a matching E, in order.
	depth := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				t.Fatalf("track %d: E without B at ts=%d", ev.Tid, ev.Ts)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("track %d: %d unclosed span(s)", tid, d)
		}
	}
	// The power track brackets both boots: on-spans and one charging slice.
	text := a.String()
	for _, want := range []string{`"name":"charging"`, `"name":"on"`, `"name":"sense"`, `"name":"commit send"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestMetricsFormat(t *testing.T) {
	tr := New()
	populate(tr)
	var buf bytes.Buffer
	if err := tr.Metrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"artemis_boots_total 2",
		"artemis_power_failures_total 1",
		`artemis_task_starts_total{task="send"} 2`,
		`artemis_task_retries_total{task="send"} 1`, // second start while in flight
		`artemis_task_commits_total{task="sense"} 1`,
		`artemis_monitor_transitions_total{machine="maxTries_sense"} 1`,
		`artemis_property_failures_total{machine="maxTries_send"} 1`,
		`artemis_actions_total{action="restartPath"} 1`,
		`artemis_scrub_repairs_total{policy="shadowRestore"} 1`,
		"artemis_commit_flips_total 2",
		"artemis_events_total 15",
		"artemis_on_duration_seconds_count 1",
		"artemis_task_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: identical snapshot on re-export.
	var again bytes.Buffer
	if err := tr.Metrics(&again); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Fatal("Metrics is not deterministic across exports")
	}
}

func TestJSONFloatNonFinite(t *testing.T) {
	tr := New()
	tr.Boot(0, 0)
	tr.PowerFailure(10)
	tr.EnergyCharge(20, 10, math.Inf(1))
	tr.Boot(1, 20)
	tr.TaskEnd("sense", 1, 30, math.NaN())
	var buf bytes.Buffer
	if err := tr.ChromeTrace(&buf); err != nil {
		t.Fatalf("ChromeTrace with non-finite floats: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace with non-finite floats is invalid JSON")
	}
}

func TestFlightDump(t *testing.T) {
	var nilTr *Tracer
	if nilTr.FlightDump() != "" {
		t.Fatal("nil tracer FlightDump should be empty")
	}
	tr := New()
	if tr.FlightDump() != "" {
		t.Fatal("detached tracer FlightDump should be empty")
	}
	if err := tr.AttachFlight(nvm.New(4096), 4); err != nil {
		t.Fatal(err)
	}
	populate(tr)
	dump := tr.FlightDump()
	if !strings.HasPrefix(dump, "flight recorder: ") {
		t.Fatalf("dump header missing:\n%s", dump)
	}
	// Depth 4: the window shows the newest four persisted events.
	if got := strings.Count(dump, "\n  #"); got != 4 {
		t.Fatalf("dump shows %d events, want 4:\n%s", got, dump)
	}
	for _, want := range []string{"taskCommit send", "scrubRepair shadowRestore"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// FuzzChromeTrace feeds arbitrary event sequences — raw-byte names, random
// kinds, non-finite floats — through the exporters and asserts the output
// is always valid JSON.
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "sense", "s0")
	f.Add([]byte{9, 9, 9, 1, 1, 0, 255, 128}, "a\x00b", "\xff\xfe")
	f.Add([]byte{}, "", "")
	f.Fuzz(func(t *testing.T, ops []byte, name, aux string) {
		tr := New()
		var acc uint64
		for i, b := range ops {
			at := simclock.Time(int64(i) * 17)
			acc = acc<<8 | uint64(b)
			val := math.Float64frombits(acc * 0x9e3779b97f4a7c15)
			switch b % 10 {
			case 0:
				tr.Boot(i, at)
			case 1:
				tr.PowerFailure(at)
			case 2:
				tr.EnergyCharge(at, simclock.Duration(int64(b)), val)
			case 3:
				tr.TaskStart(name, i, at)
			case 4:
				tr.TaskEnd(name, i, at, val)
			case 5:
				tr.TaskCommit(name, i, at)
			case 6:
				tr.MonitorTransition(name, aux, name+aux, at)
			case 7:
				tr.PropertyFail(name, aux, i, at)
			case 8:
				tr.ActionTaken(aux, name, i, at)
			case 9:
				tr.ScrubRepair(name, aux, at)
			}
		}
		var buf bytes.Buffer
		if err := tr.ChromeTrace(&buf); err != nil {
			t.Fatalf("ChromeTrace: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid trace JSON for ops %v", ops)
		}
		buf.Reset()
		if err := tr.Metrics(&buf); err != nil {
			t.Fatalf("Metrics: %v", err)
		}
	})
}
