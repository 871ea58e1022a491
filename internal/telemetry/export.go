package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Chrome trace-event track layout: one synthetic process with a thread per
// subsystem, so Perfetto renders tasks, power state, monitor activity, and
// integrity repairs as separate swim lanes.
const (
	tidTasks     = 1
	tidPower     = 2
	tidMonitors  = 3
	tidIntegrity = 4
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph B/E = duration begin/end, X = complete, i = instant, M = metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonFloat makes a float safe for encoding/json, which rejects ±Inf and
// NaN (the energy model reports +Inf headroom for continuous supplies).
func jsonFloat(f float64) any {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	return f
}

// ChromeTrace writes the volatile event log as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps
// are simclock microseconds — exactly the unit the format expects — so the
// output depends only on the simulated run and is byte-identical at any
// host parallelism.
func (t *Tracer) ChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: ChromeTrace on disabled tracer")
	}
	out := []chromeEvent{
		meta(tidTasks, "tasks"),
		meta(tidPower, "power"),
		meta(tidMonitors, "monitors"),
		meta(tidIntegrity, "integrity"),
	}

	var (
		openTask string // task span open on the tasks track ("" = none)
		powerOn  bool
		lastTs   int64
	)
	closeTask := func(ts int64) {
		if openTask != "" {
			out = append(out, chromeEvent{Name: openTask, Ph: "E", Ts: ts, Pid: 1, Tid: tidTasks})
			openTask = ""
		}
	}
	for _, ev := range t.events {
		ts := int64(ev.At)
		if ts > lastTs {
			lastTs = ts
		}
		switch ev.Kind {
		case KindBoot:
			if !powerOn {
				out = append(out, chromeEvent{Name: "on", Ph: "B", Ts: ts, Pid: 1, Tid: tidPower,
					Args: map[string]any{"boot": ev.A}})
				powerOn = true
			}
		case KindPowerFailure:
			closeTask(ts) // the in-flight attempt dies with the power
			if powerOn {
				out = append(out, chromeEvent{Name: "on", Ph: "E", Ts: ts, Pid: 1, Tid: tidPower})
				powerOn = false
			}
		case KindEnergyCharge:
			out = append(out, chromeEvent{Name: "charging", Ph: "X", Ts: ts - ev.A, Dur: ev.A,
				Pid: 1, Tid: tidPower, Args: map[string]any{"level_uJ": jsonFloat(ev.Data)}})
		case KindTaskStart:
			closeTask(ts) // a replayed start supersedes the torn attempt
			openTask = t.NameOf(ev.Name)
			out = append(out, chromeEvent{Name: openTask, Ph: "B", Ts: ts, Pid: 1, Tid: tidTasks,
				Args: map[string]any{"path": ev.A}})
		case KindTaskEnd:
			closeTask(ts)
		case KindTaskCommit:
			out = append(out, chromeEvent{Name: "commit " + t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidTasks, S: "t", Args: map[string]any{"path": ev.A}})
		case KindMonitorTransition:
			out = append(out, chromeEvent{Name: t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidMonitors, S: "t",
				Args: map[string]any{"from": t.NameOf(int32(ev.A)), "to": t.NameOf(ev.Aux)}})
		case KindPropertyFail:
			out = append(out, chromeEvent{Name: "fail " + t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidMonitors, S: "t",
				Args: map[string]any{"action": t.NameOf(ev.Aux), "path": ev.A}})
		case KindActionTaken:
			out = append(out, chromeEvent{Name: t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidMonitors, S: "t",
				Args: map[string]any{"by": t.NameOf(ev.Aux), "path": ev.A}})
		case KindInputStale:
			out = append(out, chromeEvent{Name: "stale " + t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidTasks, S: "t",
				Args: map[string]any{"consumer": t.NameOf(ev.Aux), "age_us": ev.A}})
		case KindReCollect:
			out = append(out, chromeEvent{Name: "re-collect " + t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidTasks, S: "t",
				Args: map[string]any{"consumer": t.NameOf(ev.Aux)}})
		case KindScrubRepair:
			out = append(out, chromeEvent{Name: t.NameOf(ev.Name), Ph: "i", Ts: ts,
				Pid: 1, Tid: tidIntegrity, S: "t",
				Args: map[string]any{"guard": t.NameOf(ev.Aux)}})
		}
	}
	closeTask(lastTs)
	if powerOn {
		out = append(out, chromeEvent{Name: "on", Ph: "E", Ts: lastTs, Pid: 1, Tid: tidPower})
	}

	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", out}
	enc, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

func meta(tid int, name string) chromeEvent {
	return chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": name}}
}

// FlightDump renders the last committed flight-recorder image as text —
// what a post-mortem boot would recover from NVM. Chaos campaigns attach
// this to unrecoverable fault outcomes.
func (t *Tracer) FlightDump() string {
	if t == nil || t.flight == nil {
		return ""
	}
	evs := t.FlightEvents()
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d events persisted, depth %d, showing %d\n",
		t.PersistedCount(), t.flight.depth, len(evs))
	for _, ev := range evs {
		fmt.Fprintf(&b, "  #%d t=%dus %s", ev.Seq, int64(ev.At), ev.Kind)
		if n := t.NameOf(ev.Name); n != "" {
			fmt.Fprintf(&b, " %s", n)
		}
		switch ev.Kind {
		case KindMonitorTransition:
			fmt.Fprintf(&b, " %s->%s", t.NameOf(int32(ev.A)), t.NameOf(ev.Aux))
		case KindEnergyCharge:
			fmt.Fprintf(&b, " off=%dus level=%vuJ", ev.A, jsonFloat(ev.Data))
		default:
			if a := t.NameOf(ev.Aux); a != "" {
				fmt.Fprintf(&b, " [%s]", a)
			}
			if ev.A != 0 || ev.Kind == KindTaskStart || ev.Kind == KindTaskEnd ||
				ev.Kind == KindTaskCommit || ev.Kind == KindBoot {
				fmt.Fprintf(&b, " a=%d", ev.A)
			}
			if ev.Data != 0 {
				fmt.Fprintf(&b, " data=%v", jsonFloat(ev.Data))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
