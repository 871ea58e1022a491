package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestContinuousArtemis(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"ARTEMIS", "completed", "sentCount=3.00", "tempCount=10.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestIntermittentArtemisVerbose(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-charging", "6m", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"power failure #", "restartPath", "skipPath", "completed"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestMayflyNonTermination(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "mayfly", "-charging", "6m", "-reboots", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NON-TERMINATION") {
		t.Errorf("output missing non-termination:\n%s", out.String())
	}
}

func TestFeverCompletePath(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-temp", "39.2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completePath ×1") || !strings.Contains(s, "sentCount=1.00") {
		t.Errorf("fever scenario wrong:\n%s", s)
	}
}

func TestHarvestedSupply(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-harvest", "5e-6"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "reboots") {
		t.Errorf("output missing reboot info:\n%s", out.String())
	}
}

func TestShowIR(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-show-ir"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "machine MITD_send_accel") {
		t.Errorf("output missing IR:\n%s", out.String())
	}
}

func TestRounds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sentCount=6.00") {
		t.Errorf("two rounds should send 6:\n%s", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-system", "tics"},
		{"-charging", "soon"},
		{"-nonsense"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: succeeded", args)
		}
	}
}

func TestCameraApp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "camera", "-rounds", "4", "-charging", "45s", "-budget", "2350"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"completed", "frames=", "chunksSent="} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCameraMayflyRejected(t *testing.T) {
	if err := run([]string{"-app", "camera", "-system", "mayfly"}, &bytes.Buffer{}); err == nil {
		t.Fatal("camera under mayfly accepted")
	}
}

func TestUnknownApp(t *testing.T) {
	if err := run([]string{"-app", "toaster"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestChaosModeDeterministic(t *testing.T) {
	campaign := func() string {
		var out bytes.Buffer
		if err := run([]string{"-chaos", "-seed", "42", "-chaos-crash-points", "50", "-chaos-fault-runs", "3"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := campaign(), campaign()
	if a != b {
		t.Errorf("same -seed produced different chaos reports:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"chaos campaign (seed 42)", "crash:", "radio:", "sensor:", "bitflip:", "verdict:    PASS"} {
		if !strings.Contains(a, want) {
			t.Errorf("chaos output missing %q:\n%s", want, a)
		}
	}
}

func TestChaosWorkersDeterministic(t *testing.T) {
	campaign := func(extra ...string) string {
		var out bytes.Buffer
		args := append([]string{"-chaos", "-seed", "42", "-chaos-crash-points", "50", "-chaos-fault-runs", "3"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := campaign()
	if got := campaign("-workers", "4"); got != serial {
		t.Errorf("-workers 4 changed the chaos report:\nserial:\n%s\nparallel:\n%s", serial, got)
	}
	if got := campaign("-workers", "0"); got != serial {
		t.Errorf("-workers 0 changed the chaos report:\nserial:\n%s\nparallel:\n%s", serial, got)
	}
}

func TestBurstSupplySeeded(t *testing.T) {
	burst := func(seed string) string {
		var out bytes.Buffer
		if err := run([]string{"-burst", "40ms", "-seed", seed}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := burst("7"), burst("7")
	if a != b {
		t.Errorf("same -seed produced different burst runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "completed") {
		t.Errorf("burst run did not complete:\n%s", a)
	}
}

func TestRejectedFlagCombos(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "-burst", "40ms"}, "its own supply"},
		{[]string{"-chaos", "-charging", "6m"}, "its own supply"},
		{[]string{"-chaos", "-harvest", "5e-6"}, "its own supply"},
		{[]string{"-chaos", "-app", "camera"}, "health benchmark"},
		{[]string{"-chaos", "-system", "mayfly"}, "ARTEMIS runtime"},
		{[]string{"-chaos", "-chaos-crash-points", "-1"}, "must be >= 0"},
		{[]string{"-chaos", "-chaos-fault-runs", "0"}, "must be positive"},
		{[]string{"-workers", "-1"}, "must be >= 0"},
		{[]string{"-workers", "4"}, "nothing to fan out"},
		{[]string{"-watchdog-limit", "-3"}, "must be >= 0"},
		{[]string{"-integrity", "-scrub-interval", "-5s"}, "-scrub-interval"},
		{[]string{"-integrity", "-scrub-interval", "soon"}, "-scrub-interval"},
		{[]string{"-integrity", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-watchdog-limit", "5", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-flight", "-1"}, "must be >= 0"},
		{[]string{"-flight", "32", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-trace", "/tmp/t.json", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-metrics", "/tmp/m.txt", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-dump-fsm", "/tmp/fsm", "-chaos"}, "drop -chaos"},
		{[]string{"-dump-fsm", "/tmp/fsm", "-system", "mayfly"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-swap-spec"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-chaos"}, "ARTEMIS runtime"},
		{[]string{"-system", "ocelot", "-integrity"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-watchdog-limit", "5"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-flight", "32"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-dump-fsm", "/tmp/fsm"}, "-system artemis"},
		{[]string{"-system", "ocelot", "-app", "camera"}, "only -app health"},
		{[]string{"-freshness-bound", "8m"}, "add -system ocelot"},
		{[]string{"-system", "ocelot", "-freshness-bound", "soon"}, "-freshness-bound"},
		{[]string{"-system", "ocelot", "-freshness-bound", "0s"}, "must be positive"},
	}
	for _, c := range cases {
		err := run(c.args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v: accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not mention %q", c.args, err, c.want)
		}
	}
}

// TestOcelotRuntime exercises the freshness-enforcement runtime end to end:
// at a 6-minute charging delay the 5-minute accel->send bound is stale on
// every reboot-separated consumption, and the report shows the re-collection
// with zero violations.
func TestOcelotRuntime(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "ocelot", "-charging", "6m", "-budget", "980"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ocelot", "completed", "re-collections=1", "violations=0", "sentCount=3.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestOcelotFreshnessBoundOverride loosens the bound past the charging
// delay: nothing is ever stale, so no enforcement work happens.
func TestOcelotFreshnessBoundOverride(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "ocelot", "-charging", "6m", "-budget", "980", "-freshness-bound", "8m"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"completed", "stale=0", "re-collections=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestIntegrityFlagSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-integrity", "-scrub-interval", "100ms", "-charging", "6m"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"completed", "integrity:", "guards", "0 corruptions"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestTelemetryFlagsSingleRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	if err := run([]string{"-charging", "1s",
		"-trace", tracePath, "-metrics", metricsPath, "-flight", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "telemetry:") {
		t.Errorf("report missing telemetry line:\n%s", out.String())
	}
	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(traceBytes) {
		t.Fatal("-trace output is not valid JSON")
	}
	for _, want := range []string{`"displayTimeUnit":"ms"`, `"name":"tasks"`, `"name":"charging"`} {
		if !strings.Contains(string(traceBytes), want) {
			t.Errorf("trace missing %s", want)
		}
	}
	metricsBytes, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"artemis_boots_total", "artemis_task_commits_total{task=\"bodyTemp\"}", "artemis_flight_persisted_total"} {
		if !strings.Contains(string(metricsBytes), want) {
			t.Errorf("metrics missing %s:\n%s", want, metricsBytes)
		}
	}
}

func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	export := func(name string) string {
		p := filepath.Join(dir, name)
		if err := run([]string{"-charging", "1s", "-trace", p, "-flight", "32"}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := export("a.json"), export("b.json"); a != b {
		t.Fatal("identical runs produced different trace files")
	}
}

func TestChaosTelemetryArtifactsWorkerInvariant(t *testing.T) {
	dir := t.TempDir()
	export := func(suffix string, workers string) (string, string) {
		tp := filepath.Join(dir, "trace-"+suffix+".json")
		mp := filepath.Join(dir, "metrics-"+suffix+".txt")
		args := []string{"-chaos", "-seed", "42", "-chaos-crash-points", "30", "-chaos-fault-runs", "2",
			"-workers", workers, "-flight", "32", "-trace", tp, "-metrics", mp}
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tp)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(mp)
		if err != nil {
			t.Fatal(err)
		}
		return string(tb), string(mb)
	}
	t1, m1 := export("serial", "1")
	t2, m2 := export("parallel", "0")
	if t1 != t2 {
		t.Error("-workers changed the chaos trace artifact")
	}
	if m1 != m2 {
		t.Error("-workers changed the chaos metrics artifact")
	}
	if !json.Valid([]byte(t1)) {
		t.Error("chaos trace artifact is not valid JSON")
	}
	if !strings.Contains(m1, "artemis_boots_total") {
		t.Error("chaos metrics artifact malformed")
	}
}

func TestDumpFSMFlag(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-dump-fsm", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 8 machine(s)") {
		t.Errorf("missing dump confirmation:\n%s", out.String())
	}
	combined, err := os.ReadFile(filepath.Join(dir, "monitors.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(combined), "digraph monitors") {
		t.Fatal("combined DOT malformed")
	}
	single, err := os.ReadFile(filepath.Join(dir, "maxTries_accel.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(single), `label="maxTries_accel"`) {
		t.Fatalf("per-machine DOT missing its cluster label:\n%s", single)
	}
}

func TestWatchdogFlagTerminatesStarvedRun(t *testing.T) {
	// 5 µJ boots cover the boot sequence but never bodyTemp's ADC sample —
	// without the watchdog this boot-loops into NON-TERMINATION.
	var base bytes.Buffer
	if err := run([]string{"-charging", "1s", "-budget", "5", "-reboots", "80"}, &base); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(base.String(), "NON-TERMINATION") {
		t.Fatalf("starved baseline did not livelock:\n%s", base.String())
	}
	var out bytes.Buffer
	if err := run([]string{"-charging", "1s", "-budget", "5", "-reboots", "300", "-watchdog-limit", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"completed", "watchdog trips"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}
