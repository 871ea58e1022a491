package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testMetrics mirror two of BENCHMARK.json's end-to-end metrics.
var testMetrics = []metricSpec{
	{Name: "throughput_per_s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Better: "lower", Bound: 0.25},
}

// runOutput is a canned perfbench standard output: the env line, a report
// line, then the JSON result line.
func runOutput(correct bool, attempted, failed int, throughput, p50 float64) string {
	return fmt.Sprintf(`env {"workload":"fleet-steady","seed":1}
latency: n=100 p50=%[5]g ms
{"correct":%[1]t,"attempted":%[2]d,"failed":%[3]d,"metrics":{"throughput_per_s":{"value":%[4]g,"unit":"1/s"},"latency_p50_ms":{"value":%[5]g,"unit":"ms"}}}
`, correct, attempted, failed, throughput, p50)
}

func mustParse(t *testing.T, out string) result {
	t.Helper()
	r, err := parse(out)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pairsOf builds pairs whose base runs all report throughput 1000 and p50
// 1 ms, and whose new runs report the given throughputs.
func pairsOf(t *testing.T, throughputs ...float64) []pair {
	var ps []pair
	for i, tp := range throughputs {
		ps = append(ps, pair{
			baseFile: fmt.Sprintf("base-%d", i+1), newFile: fmt.Sprintf("new-%d", i+1),
			base: mustParse(t, runOutput(true, 10, 0, 1000, 1)),
			new:  mustParse(t, runOutput(true, 10, 0, tp, 1)),
		})
	}
	return ps
}

func TestParse(t *testing.T) {
	r := mustParse(t, runOutput(false, 12, 3, 6500.5, 0.75))
	if r.Correct || r.Attempted != 12 || r.Failed != 3 {
		t.Errorf("parsed %+v", r)
	}
	if got := r.Metrics["throughput_per_s"].Value; got != 6500.5 {
		t.Errorf("throughput_per_s = %v, want 6500.5", got)
	}
	if got := r.Metrics["latency_p50_ms"].Value; got != 0.75 {
		t.Errorf("latency_p50_ms = %v, want 0.75", got)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	for _, out := range []string{"", "env {}\nperfbench: fleet-steady: boom\n", `{"correct":true}` + "\n"} {
		if _, err := parse(out); err == nil {
			t.Errorf("parse(%q) accepted", out)
		}
	}
}

// A median change beyond the bound fails, even when one pair is fine.
func TestCompareFlagsRegressions(t *testing.T) {
	var buf bytes.Buffer
	failures, err := compare(testMetrics, pairsOf(t, 700, 690, 1010, 650), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "throughput_per_s") {
		t.Fatalf("failures = %q, want one on throughput_per_s\n%s", failures, buf.String())
	}
	if !strings.Contains(buf.String(), "+43.9%") {
		t.Errorf("table lacks the median change +43.9%%:\n%s", buf.String())
	}
}

// A median change within the bound passes, even when one pair is beyond.
func TestComparePassesWithinThreshold(t *testing.T) {
	var buf bytes.Buffer
	failures, err := compare(testMetrics, pairsOf(t, 900, 1050, 500, 820), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %q\n%s", failures, buf.String())
	}
}

func TestCompareFailsIncorrectRun(t *testing.T) {
	ps := pairsOf(t, 1000, 1000, 1000, 1000)
	ps[2].new.Correct = false
	failures, err := compare(testMetrics, ps, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "new-3 is not correct") {
		t.Fatalf("failures = %q, want new-3 not correct", failures)
	}
}

// A new run that fails a larger share of its operations than its base run
// fails the gate, whatever its correct flag says.
func TestCompareFailsHigherFailureShare(t *testing.T) {
	ps := pairsOf(t, 1000, 1000, 1000, 1000)
	ps[0].base.Failed, ps[0].base.Attempted = 1, 10
	ps[0].new.Failed, ps[0].new.Attempted = 1, 20 // smaller share: fine
	ps[1].new.Failed = 1
	failures, err := compare(testMetrics, ps, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "pair 2: new-2 failed 1/10") {
		t.Fatalf("failures = %q, want pair 2's failure share", failures)
	}
}

func TestCompareRejectsMissingMetric(t *testing.T) {
	ps := pairsOf(t, 1000)
	delete(ps[0].new.Metrics, "latency_p50_ms")
	if _, err := compare(testMetrics, ps, &bytes.Buffer{}); err == nil {
		t.Fatal("a run without latency_p50_ms was compared")
	}
}

func TestWorseBy(t *testing.T) {
	cases := []struct {
		base, cur float64
		better    string
		want      float64
	}{
		{100, 130, "lower", 0.3},
		{100, 50, "higher", 1},
		{100, 125, "higher", -0.2},
		{0, 0, "lower", 0},
		{1, 0, "lower", -1},
	}
	for _, c := range cases {
		if got := worseBy(c.base, c.cur, c.better); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.base, c.cur, c.better, got, c.want)
		}
	}
	if got := worseBy(0, 1, "lower"); got <= 0.25 {
		t.Errorf("growth from a zero base = %v, want beyond any bound", got)
	}
	if got := worseBy(1, 0, "higher"); got <= 0.25 {
		t.Errorf("a rate falling to zero = %v, want beyond any bound", got)
	}
}

// TestCompareFilesEndToEnd runs the command on the repository's
// BENCHMARK.json and run files on disk.
func TestCompareFilesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, metrics string) string {
		path := filepath.Join(dir, name)
		out := "env {}\n" + `{"correct":true,"attempted":4,"failed":0,"metrics":{` + metrics + "}}\n"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const base = `"setup_s":{"value":0.2},"throughput_per_s":{"value":6000},"latency_p50_ms":{"value":2},` +
		`"latency_tail_ms":{"value":9},"peak_rss_mb":{"value":80},"ok_ratio":{"value":1}`
	slow := strings.Replace(base, `"throughput_per_s":{"value":6000}`, `"throughput_per_s":{"value":4000}`, 1)
	spec := filepath.Join("..", "..", "BENCHMARK.json")

	var buf bytes.Buffer
	args := []string{spec, write("base-1", base), write("new-1", base), write("base-2", base), write("new-2", base)}
	if err := run(args, &buf); err != nil {
		t.Fatalf("no-op pairs failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate passed: 2 pair(s), 6 end-to-end metrics") {
		t.Errorf("no pass line:\n%s", buf.String())
	}

	args = []string{spec, write("base-1", base), write("new-1", slow), write("base-2", base), write("new-2", slow)}
	err := run(args, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "throughput_per_s") {
		t.Fatalf("slowed pairs: err = %v, want a throughput_per_s failure", err)
	}

	for _, bad := range [][]string{nil, {spec}, {spec, "a"}, {spec, "a", "b", "c"}} {
		if err := run(bad, &bytes.Buffer{}); err == nil {
			t.Errorf("args %q accepted", bad)
		}
	}
}
