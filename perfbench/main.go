// Command perfbench is the repository's benchmark. It drives the system only
// through its public functions — the fleet server's HTTP handler over
// loopback, Server.StepOnce/Register/Shutdown, examplespecs, core, nvm and
// the chaos explorers — and prints every metric of one workload.
//
//	perfbench --workload fleet-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// workload half untraced and half traced (spans around every public call,
// plus a CPU profile) and prints the per-layer metrics. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 2 for a usage error and 1 when the
// run fails or any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// outDir holds what a run leaves behind (spans, CPU profiles), relative to
// the working directory.
const outDir = ".bench_build"

// How many times a run sets the system up; setup_s is the median. The
// cheaper the setup, the more repeats a steady median needs.
const (
	steadySetups = 7
	ingestSetups = 15
	sweepSetups  = 101
)

type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
}

// result is what a workload hands back to main.
type result struct {
	setup []float64 // seconds, one per setup
	// throughput is the median per-window rate; lat the op latencies (ms).
	throughput float64
	lat        []sample
	tailP      float64
	attempted  int
	failed     int
	failures   []string // failed output checks, for the report
	layer      map[string]float64
	report     []string // human-readable lines under per-workload names
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check counts one output check, failing it when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runCfg) (*result, error){
	"fleet-steady": fleetSteady,
	"fleet-ingest": fleetIngest,
	"crash-sweep":  crashSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runCfg
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "fleet-steady, fleet-ingest or crash-sweep")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced half and prints per-layer metrics")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "engine and explorer workers (at most GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		return 2
	}
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return usage("unknown workload %q", cfg.workload)
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return usage("--trace must be 0 or 1")
	case !(cfg.seconds >= 1 && cfg.seconds <= 600):
		return usage("--seconds must be in [1, 600]")
	case cfg.workers < 1 || cfg.workers > runtime.GOMAXPROCS(0):
		// More workers than processors would time-slice the engine onto
		// fewer cores and measure the scheduler, not the system.
		return usage("--workers %d outside [1, GOMAXPROCS=%d]", cfg.workers, runtime.GOMAXPROCS(0))
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	env := environment(cfg)
	envJSON, _ := json.Marshal(env) // a map of strings and numbers always encodes
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}

	vals := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, m := range perLayer {
			vals[m.Name] = res.layer[m.Name]
		}
	} else {
		d := summarize(res.lat, res.tailP)
		if !d.TailOK {
			res.fail("latency p%g has %d samples beyond it in %d, want >= %d: lengthen --seconds",
				res.tailP, beyond(res.tailP, d.N), d.N, minBeyond)
		}
		vals["setup_s"] = median(append([]float64(nil), res.setup...))
		vals["throughput_per_s"] = res.throughput
		vals["latency_p50_ms"] = d.P50
		vals["latency_tail_ms"] = d.Tail
		vals["peak_rss_mb"] = peakRSSMB()
		vals["ok_ratio"] = 1 - float64(res.failed)/float64(max(res.attempted, 1))
		fmt.Fprintf(stdout, "latency: n=%d p50=%.4f ms p%g=%.4f ms (highest supported percentile p%g)\n",
			d.N, d.P50, d.TailP, d.Tail, d.MaxP)
		fmt.Fprintf(stdout, "setup_s: n=%d min=%.6f max=%.6f s\n", len(res.setup), pctOf(res.setup, 0), pctOf(res.setup, 100))
		fmt.Fprintf(stdout, "error_ratio: %d/%d\n", res.failed, max(res.attempted, 1))
	}

	for _, f := range res.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(res.failures) == 0 && res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]metric{}}
	tw := bufio.NewWriter(stdout)
	for _, m := range defs {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Fprintf(tw, "FAIL metric %s is %v\n", m.Name, v)
			v = 0
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		if m.Moves != "" {
			fmt.Fprintf(tw, "%-36s %14.4f %-6s moves %s\n", m.Name, v, m.Unit, m.Moves)
		} else {
			fmt.Fprintf(tw, "%-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(tw, "%s\n", line)
	if err := tw.Flush(); err != nil {
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// environment is the record printed with every result.
func environment(cfg runCfg) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "workers": cfg.workers,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	alloc  float64 // cumulative heap bytes allocated
	gcCPU  float64 // cumulative GC CPU seconds
	allCPU float64
	gcs    float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return usage{wall: time.Now(), cpu: cpuTime(), alloc: f(0), gcCPU: f(1), allCPU: f(2), gcs: f(3)}
}

// phaseCost is what one measured phase consumed.
type phaseCost struct {
	ops            float64 // units of work done
	wall, cpu      time.Duration
	alloc          float64
	gcFrac, gcRate float64
}

func costBetween(a, b usage, ops float64) phaseCost {
	c := phaseCost{ops: ops, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
	if d := b.allCPU - a.allCPU; d > 0 {
		c.gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	c.gcRate = (b.gcs - a.gcs) / c.wall.Seconds()
	return c
}

// measure runs a workload's measured part. Untraced, it is one phase of
// the full length. Traced, the first half runs untraced and the second
// with spans and a CPU profile, so the two halves give the tracing
// overhead; runtime counters come from the untraced half, whose cost it
// returns. phase runs for dur and returns how many units of work it did.
func measure(cfg runCfg, res *result, phase func(dur time.Duration, rec *recorder) (float64, error)) (phaseCost, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		_, err := phase(total, nil)
		return phaseCost{}, err
	}
	half := total / 2
	u0 := readUsage()
	ops, err := phase(half, nil)
	if err != nil {
		return phaseCost{}, err
	}
	plain := costBetween(u0, readUsage(), ops)

	prof := filepath.Join(outDir, "cpu-"+cfg.workload+".pprof")
	f, err := os.Create(prof)
	if err != nil {
		return phaseCost{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return phaseCost{}, err
	}
	rec := newRecorder()
	u1 := readUsage()
	ops, err = phase(half, rec)
	traced := costBetween(u1, readUsage(), ops)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return phaseCost{}, err
	}
	if plain.ops <= 0 || traced.ops <= 0 {
		return phaseCost{}, errors.New("a measured phase did no work")
	}
	shares, err := cpuShares([]string{prof})
	if err != nil {
		return phaseCost{}, err
	}
	for b, v := range shares {
		res.layer["cpu_share."+b] = v
	}
	perPlain := plain.cpu.Seconds() / plain.ops
	res.layer["trace.overhead_pct"] = (traced.cpu.Seconds()/traced.ops - perPlain) / perPlain * 100
	res.layer["runtime.alloc_bytes_per_op"] = plain.alloc / plain.ops
	res.layer["runtime.gc_cpu_fraction"] = plain.gcFrac
	res.layer["runtime.gc_cycles_per_s"] = plain.gcRate
	res.note("untraced half: %.0f ops in %v, cpu %v; traced half: %.0f ops in %v, cpu %v",
		plain.ops, plain.wall.Round(time.Millisecond), plain.cpu.Round(time.Millisecond),
		traced.ops, traced.wall.Round(time.Millisecond), traced.cpu.Round(time.Millisecond))
	return plain, rec.write(filepath.Join(outDir, "spans-"+cfg.workload+".jsonl"))
}

// medianOf is the median of a copy of xs, 0 when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(append([]float64(nil), xs...))
}

// pctOf is the nearest-rank percentile of a copy of xs, 0 when empty.
func pctOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), xs...), p)
}
