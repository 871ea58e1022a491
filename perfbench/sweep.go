package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

// swapBudget is how many byte-granularity crash points each swap sweep
// samples from its 236,646-point space; the three other explorers sweep
// exhaustively.
const swapBudget = 800

// explorerNames fixes the order sweeps run in a round.
var explorerNames = []string{"health", "integrity", "formal", "swap"}

// timedExplorer wraps an explorer's public Build and PostCheck hooks to
// time every crash point from its Build to the end of its PostCheck. It
// keeps its samples across the fresh explorer each round wraps.
type timedExplorer struct {
	name string
	e    *chaos.Explorer
	rec  **recorder

	mu     sync.Mutex
	starts map[*core.Framework][2]time.Time // Build start and end
	points []float64                        // ms, Build start to PostCheck end
	builds []float64                        // us
	checks []float64                        // us
}

// wrap installs the timing hooks on e and makes it the explorer to sweep.
func (t *timedExplorer) wrap(e *chaos.Explorer) {
	t.e = e
	clear(t.starts)
	build, post := e.Build, e.PostCheck
	e.Build = func() (*core.Framework, error) {
		t0 := time.Now()
		f, err := build()
		if err == nil {
			t.mu.Lock()
			t.starts[f] = [2]time.Time{t0, time.Now()}
			t.mu.Unlock()
		}
		return f, err
	}
	e.PostCheck = func(f *core.Framework, ref, got chaos.Outcome) []chaos.OracleFailure {
		t2 := time.Now()
		var fails []chaos.OracleFailure
		if post != nil {
			fails = post(f, ref, got)
		}
		t3 := time.Now()
		t.mu.Lock()
		b, ok := t.starts[f]
		delete(t.starts, f)
		if ok {
			t.points = append(t.points, ms(t3.Sub(b[0])))
			t.builds = append(t.builds, us(b[1].Sub(b[0])))
			if post != nil {
				t.checks = append(t.checks, us(t3.Sub(t2)))
			}
		}
		t.mu.Unlock()
		if r := *t.rec; r != nil && ok {
			p := r.add("chaos.point."+t.name, b[0], t3, -1, 0)
			r.add("chaos.build", b[0], b[1], p, 0)
			if post != nil {
				r.add("correctness.postcheck", t2, t3, p, 0)
			}
		}
		return fails
	}
}

// sweep runs one exhaustive (or, for swap, sampled) sweep and checks it:
// every oracle passes at every point, and explored + pruned covers the
// point space (explored equals the budget when sampled).
func (t *timedExplorer) sweep(res *result) (int, error) {
	rep, err := t.e.Run()
	if err != nil {
		return 0, fmt.Errorf("%s sweep: %w", t.name, err)
	}
	res.attempted += rep.Explored
	res.failed += rep.Failed
	for _, p := range rep.FailedPoints {
		for _, f := range p.Failures {
			res.failures = append(res.failures, fmt.Sprintf("%s point %d [%s]: %s", t.name, p.Point, f.Oracle, f.Detail))
		}
	}
	space := rep.Writes
	if rep.WindowHi > 0 {
		space = rep.WindowHi - rep.WindowLo + 1
	}
	covered := rep.Explored+rep.Pruned == space
	if t.e.Budget > 0 {
		covered = rep.Explored == min(t.e.Budget, space)
	}
	fails := 0
	for _, n := range rep.OracleFail {
		fails += n
	}
	res.check(covered && fails == 0, "%s sweep: explored %d + pruned %d of %d points (budget %d), %d oracle failures",
		t.name, rep.Explored, rep.Pruned, space, t.e.Budget, fails)
	return rep.Explored, nil
}

func buildExplorers(seed uint64, workers int) ([]*chaos.Explorer, error) {
	formal, err := chaos.NewHealthFormalExplorer(int64(seed), 0)
	if err != nil {
		return nil, err
	}
	es := []*chaos.Explorer{
		chaos.NewHealthExplorer(int64(seed), 0),
		chaos.NewHealthIntegrityExplorer(int64(seed), 0),
		formal,
		chaos.NewHealthSwapExplorer(int64(seed), swapBudget),
	}
	for _, e := range es {
		e.Workers = workers
	}
	return es, nil
}

// crashSweep is the researcher's workload: back-to-back crash-consistency
// sweeps of four explorers, bypassing the serving layers entirely. Each
// round constructs its explorers afresh, as one sweep command does: an
// Explorer reused across Run calls keeps memory from every sweep, and its
// growing heap would slow the later rounds of a run.
func crashSweep(cfg runCfg) (*result, error) {
	res := &result{tailP: 90, layer: map[string]float64{}}
	// setup_s times back-to-back constructions; the cold ones at the
	// start of each round count in the round's time instead.
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		if _, err := buildExplorers(cfg.seed, cfg.workers); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	var rec *recorder
	timed := make([]*timedExplorer, len(explorerNames))
	for i, name := range explorerNames {
		timed[i] = &timedExplorer{name: name, rec: &rec, starts: map[*core.Framework][2]time.Time{}}
	}
	round := 0
	phase := func(dur time.Duration, r *recorder) (float64, error) {
		rec = r
		for _, t := range timed {
			t.points, t.builds, t.checks = nil, nil, nil
		}
		var rates []float64
		points := map[string]int{}
		total := 0
		start := time.Now()
		for time.Since(start) < dur {
			r0 := time.Now()
			// The swap explorer samples a different set of points each
			// round.
			es, err := buildExplorers(cfg.seed+uint64(round), cfg.workers)
			if err != nil {
				return 0, err
			}
			n := 0
			for i, t := range timed {
				t.wrap(es[i])
				k, err := t.sweep(res)
				if err != nil {
					return 0, err
				}
				points[t.name] = k
				n += k
			}
			round++
			total += n
			rates = append(rates, float64(n)/time.Since(r0).Seconds())
		}
		var all, builds, checks []float64
		for _, t := range timed {
			all = append(all, t.points...)
			builds = append(builds, t.builds...)
			checks = append(checks, t.checks...)
		}
		if r == nil {
			res.lat = append(res.lat, ones(all)...)
			res.throughput = medianOf(rates)
			res.note("crash-sweep: %d rounds, %d points, crash_points_per_s=%.1f (median of %d rounds, %.0f..%.0f); points per sweep %v",
				len(rates), total, res.throughput, len(rates), pctOf(rates, 0), pctOf(rates, 100), points)
			for _, t := range timed {
				res.note("crash-sweep: %s point_ms p10=%.3f p50=%.3f p90=%.3f p99=%.3f (n=%d)", t.name,
					pctOf(t.points, 10), pctOf(t.points, 50), pctOf(t.points, 90), pctOf(t.points, 99), len(t.points))
			}
		} else {
			for _, t := range timed {
				res.layer["chaos.points."+t.name] = float64(points[t.name])
				res.layer["chaos.point_us."+t.name] = medianOf(t.points) * 1e3
			}
			res.layer["chaos.build_us"] = medianOf(builds)
			res.layer["correctness.postcheck_us"] = medianOf(checks)
		}
		return float64(total), nil
	}
	if _, err := measure(cfg, res, phase); err != nil {
		return nil, err
	}
	if cfg.trace {
		health := examplespecs.All()[:1]
		if health[0].Name != "health" {
			return nil, fmt.Errorf("examplespecs.All()[0] is %q, want health", health[0].Name)
		}
		if err := replay(health, 0, cfg.seed, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
