// Command benchjson is the benchmark regression gate. It compares paired
// perfbench runs of a base tree and a changed tree:
//
//	benchjson BENCHMARK.json base-1.out new-1.out [base-2.out new-2.out ...]
//
// Each run file is the standard output of one `bash perfbench/run.sh` run,
// whose last JSON line is the run's result. The end-to-end metrics, which
// way each is better and each bound come from BENCHMARK.json. For every
// metric the gate takes each pair's relative change in cost, new against
// base (a rate's cost is its inverse), and fails when the median change is
// worse than the metric's bound. It also fails when a new run is not
// correct, or when it fails a larger share of its attempted operations
// than its paired base run. The exit code is 1 when the gate fails or an
// input is unreadable.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line a perfbench run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// failShare is the share of attempted operations that failed.
func (r result) failShare() float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

// pair is one base run and the new run measured beside it.
type pair struct {
	baseFile, newFile string
	base, new         result
}

func run(args []string, w io.Writer) error {
	if len(args) < 3 || len(args)%2 == 0 {
		return errors.New("usage: benchjson BENCHMARK.json base-1.out new-1.out [base-2.out new-2.out ...]")
	}
	metrics, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	var pairs []pair
	for i := 1; i < len(args); i += 2 {
		p := pair{baseFile: args[i], newFile: args[i+1]}
		if p.base, err = loadResult(p.baseFile); err != nil {
			return err
		}
		if p.new, err = loadResult(p.newFile); err != nil {
			return err
		}
		pairs = append(pairs, p)
	}
	failures, err := compare(metrics, pairs, w)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed over %d pair(s):\n  %s", len(pairs), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "gate passed: %d pair(s), %d end-to-end metrics within their bounds\n", len(pairs), len(metrics))
	return nil
}

// loadSpec reads the end-to-end metrics of a BENCHMARK.json.
func loadSpec(path string) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "" || (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: end_to_end metric %+v needs a name, better lower or higher, and a positive bound", path, m)
		}
	}
	return spec.EndToEnd, nil
}

func loadResult(path string) (result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	r, err := parse(string(raw))
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// parse decodes the last JSON line of a perfbench run's output.
func parse(out string) (result, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return result{}, fmt.Errorf("result line: %w", err)
		}
		if len(r.Metrics) == 0 {
			return result{}, errors.New("result line has no metrics")
		}
		return r, nil
	}
	return result{}, errors.New("no JSON result line: the run did not finish")
}

// compare prints one row per metric, with each pair's change (worseBy)
// and their median, and returns what fails the gate.
func compare(metrics []metricSpec, pairs []pair, w io.Writer) ([]string, error) {
	var failures []string
	for i, p := range pairs {
		if !p.base.Correct {
			fmt.Fprintf(w, "note: base run %s is not correct\n", p.baseFile)
		}
		if !p.new.Correct {
			failures = append(failures, fmt.Sprintf("pair %d: %s is not correct", i+1, p.newFile))
		}
		if p.new.failShare() > p.base.failShare() {
			failures = append(failures, fmt.Sprintf("pair %d: %s failed %d/%d, more than base %s's %d/%d",
				i+1, p.newFile, p.new.Failed, p.new.Attempted, p.baseFile, p.base.Failed, p.base.Attempted))
		}
	}
	fmt.Fprintf(w, "%-18s %-6s %6s  %-40s %8s\n", "metric", "better", "bound", "worse by, per pair", "median")
	for _, m := range metrics {
		changes := make([]float64, len(pairs))
		cells := make([]string, len(pairs))
		for i, p := range pairs {
			base, okBase := p.base.Metrics[m.Name]
			cur, okNew := p.new.Metrics[m.Name]
			if !okBase || !okNew {
				return nil, fmt.Errorf("pair %d: %s or %s does not report %s", i+1, p.baseFile, p.newFile, m.Name)
			}
			changes[i] = worseBy(base.Value, cur.Value, m.Better)
			cells[i] = fmt.Sprintf("%+.1f%%", changes[i]*100)
		}
		med := median(changes)
		verdict := "ok"
		if !(med <= m.Bound) {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: median change %+.1f%% worse than the %.0f%% bound (pairs: %s)",
				m.Name, med*100, m.Bound*100, strings.Join(cells, " ")))
		}
		fmt.Fprintf(w, "%-18s %-6s %5.0f%%  %-40s %+7.1f%% %s\n",
			m.Name, m.Better, m.Bound*100, strings.Join(cells, " "), med*100, verdict)
	}
	return failures, nil
}

// worseBy is the relative change from base to cur on the cost scale,
// signed so that positive is worse: cur/base − 1 for a lower-is-better
// metric and base/cur − 1 for a higher-is-better one, so halving a
// throughput counts as +100%, as doubling a latency does. A move away from
// zero cost is an infinite change.
func worseBy(base, cur float64, better string) float64 {
	if better == "higher" {
		base, cur = cur, base
	}
	switch {
	case cur == base:
		return 0
	case base == 0:
		return math.Inf(1)
	}
	return cur/base - 1
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
