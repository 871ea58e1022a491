package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// expositions renders every Prometheus surface of the repository from a
// small live state: the run metrics of an instrumented intermittent health
// run, the shard series of a stepped fleet engine, and the /metrics of a
// stepped fleet server with ingested events.
func expositions(t *testing.T) map[string]func(io.Writer) error {
	t.Helper()
	cfg, err := examplespecs.HealthConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry, cfg.FlightDepth = true, 16
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	cases := examplespecs.All()
	engine := fleet.New(fleet.Config{Shards: 2, Workers: 1})
	devices := make([]*fleet.Device, len(cases))
	for i, c := range cases {
		sp, err := fleet.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = &fleet.Device{Name: c.Name, Spec: sp}
	}
	if _, err := engine.Step(context.Background(), devices); err != nil {
		t.Fatal(err)
	}
	shards := engine.ShardStats()

	srv, err := fleetserver.New(fleetserver.Config{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := srv.Register(c.Name, c.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Ingest([]fleetserver.Event{
		{Device: "health", Kind: "start", Task: "send"},
		{Device: "health", Kind: "end", Task: "send", Data: 1.5},
		{Device: "camera", Kind: "start", Task: "capture"},
	}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := srv.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]func(io.Writer) error{
		"Tracer.Metrics":      f.Telemetry().Metrics,
		"FleetMetrics":        func(w io.Writer) error { return telemetry.FleetMetrics(w, shards) },
		"Server.WriteMetrics": srv.WriteMetrics,
	}
}

// checkExposition checks the structure of a Prometheus text exposition:
// every family is a HELP line, then its TYPE line, then its samples; no
// family repeats; every sample belongs to the family above it; histogram
// buckets never decrease in bound or count, and the +Inf bucket equals the
// count.
func checkExposition(text string) error {
	seen := map[string]bool{}
	var family, typ string
	var lastLE, lastBucket, inf float64
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if family != "" && typ == "" {
				return fail("family %s has no TYPE", family)
			}
			if seen[name] {
				return fail("family %s repeats", name)
			}
			seen[name], family, typ = true, name, ""
			lastLE, lastBucket, inf = math.Inf(-1), 0, -1
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(rest, " ")
			if name != family || typ != "" {
				return fail("TYPE does not follow its HELP")
			}
			typ = t
			continue
		}
		if typ == "" {
			return fail("sample before its family's HELP and TYPE")
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return fail("no value")
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail("value: %v", err)
		}
		name, labels, _ := strings.Cut(series, "{")
		switch {
		case name == family:
		case typ == "histogram" && name == family+"_bucket":
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(labels, `le="`), `"}`), 64)
			if err != nil {
				return fail("bucket bound: %v", err)
			}
			if le <= lastLE || v < lastBucket {
				return fail("bucket decreases")
			}
			lastLE, lastBucket = le, v
			if math.IsInf(le, 1) {
				inf = v
			}
		case typ == "histogram" && name == family+"_sum":
		case typ == "histogram" && name == family+"_count":
			if v != inf {
				return fail("count %v, +Inf bucket %v", v, inf)
			}
		default:
			return fail("sample outside family %s", family)
		}
	}
	if family != "" && typ == "" {
		return fmt.Errorf("family %s has no TYPE", family)
	}
	return nil
}

// TestExpositionStructure holds every metrics surface to the exposition
// format's structure.
func TestExpositionStructure(t *testing.T) {
	for name, write := range expositions(t) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkExposition(b.String()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestExpositionWriteError checks every metrics surface reports a writer
// that fails part-way, at any byte.
func TestExpositionWriteError(t *testing.T) {
	for name, write := range expositions(t) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for n := 0; n < b.Len(); n++ {
			if err := write(&failAfter{n: n}); !errors.Is(err, errWriterFull) {
				t.Fatalf("%s: writer failing after %d of %d bytes: error %v, want %v", name, n, b.Len(), err, errWriterFull)
			}
		}
	}
}

// TestCheckExpositionRejects keeps the structural check honest: each
// broken exposition below must fail it.
func TestCheckExpositionRejects(t *testing.T) {
	const h = "# HELP h_seconds H.\n# TYPE h_seconds histogram\n"
	for _, text := range []string{
		"c_total 1\n",
		"# HELP c_total C.\nc_total 1\n",
		"# HELP c_total C.\n# TYPE c_total counter\nc_total 1\n# HELP c_total C.\n# TYPE c_total counter\n",
		"# HELP c_total C.\n# TYPE c_total counter\nd_total 1\n",
		"# HELP c_total C.\n# TYPE g gauge\n",
		h + "h_seconds_bucket{le=\"1\"} 2\nh_seconds_bucket{le=\"2\"} 1\nh_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_count 2\n",
		h + "h_seconds_bucket{le=\"2\"} 1\nh_seconds_bucket{le=\"1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 1\nh_seconds_count 1\n",
		h + "h_seconds_bucket{le=\"1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_count 3\n",
		h + "h_seconds_bucket{le=\"1\"} 1\nh_seconds_count 1\n",
	} {
		if checkExposition(text) == nil {
			t.Errorf("accepted:\n%s", text)
		}
	}
}
