// Package freshness implements an Ocelot-style runtime ("Automatically
// Enforcing Fresh and Consistent Inputs in Intermittent Systems", Surbatovich
// et al., PLDI'21): instead of relying on spec authors to write the right
// freshness monitor (ARTEMIS) or restarting the path forever when a bound is
// missed (Mayfly), the runtime *enforces* input freshness automatically.
//
// Every sensor input is timestamped in a CommitGroup-guarded NVM region that
// commits atomically with the task outputs and the control-state advance, so
// a power failure can never separate data from its timestamp. Before a
// consuming task runs — in particular before a *re-execution* after a
// reboot, when the charging delay may have aged every input — the runtime
// checks each of the task's input bounds and re-collects stale inputs by
// re-executing the producing task, committing the fresh sample and its new
// timestamp as an atomic boundary of its own. The consumer then proceeds
// with provably fresh data: where Mayfly's restart-forever adaptation
// livelocks once the charging delay exceeds the MITD (Figure 12), this
// runtime completes with zero freshness violations, at the cost of the extra
// collections.
//
// Enforcement assumes producers are re-collection-safe: re-executing a
// producer must re-sample its input, not accumulate side effects (true of
// pure sampling tasks like the benchmark's accelerometer read; an
// accumulator like bodyTemp should not be given a bound unless its
// re-execution is acceptable). The runtime enforces exactly the declared
// bound set.
package freshness

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Owner is the NVM accounting label for the runtime (Table 2).
const Owner = "ocelot"

// Synthetic bookkeeping cost per scheduling step: slightly above Mayfly's
// 260 (the loop additionally ages every bound of the dispatched task).
const checkCycles = 270

// maxSteps bounds scheduling-loop iterations (livelock guard).
const maxSteps = 1_000_000

// Bound is one input-freshness requirement: when Consumer starts,
// Producer's data must be at most Age old.
type Bound struct {
	// Producer is the sensor-bearing task whose output is timestamped.
	Producer string
	// Consumer is the task guarded by the bound.
	Consumer string
	// Age is the maximum input age at consumption.
	Age simclock.Duration
	// Path restricts the bound to one path (0 = all paths with Consumer).
	Path int
}

// Config assembles the runtime.
type Config struct {
	MCU    *device.MCU
	Graph  *task.Graph
	Store  *task.Store
	Bounds []Bound
	Rounds int
	// Telemetry, when non-nil, receives inputStale/reCollect events and
	// commit-flip counts.
	Telemetry *telemetry.Tracer
}

// Stats counts enforcement decisions.
type Stats struct {
	TaskRuns int
	// StaleDetected counts bound checks that found a stale (or
	// never-collected) input at consumption time.
	StaleDetected int
	// ReCollections counts producer re-executions performed to refresh a
	// stale input. Every detection is followed by exactly one
	// re-collection, so the two counters agree on a completed run.
	ReCollections int
	// Violations counts consumers that ran on stale inputs — zero by
	// construction, reported so runtime comparisons (Mayfly's
	// FreshnessFailures) have a like-for-like column.
	Violations int
}

// ErrStuck reports livelock on continuous power (step budget exhausted).
var ErrStuck = errors.New("ocelot: no progress within the step budget")

// Control-region layout (words), mirroring the Mayfly baseline.
const (
	wPathIdx = iota
	wTaskIdx
	wRound
	wAppDone
	wWords
)

// Runtime is the input-freshness-enforcing runtime.
type Runtime struct {
	cfg    Config
	ctl    *nvm.Committed
	stamps *nvm.Committed
	slot   map[string]int // producer -> stamp offset in stamps
	init   *nvm.Var[bool]
	group  *nvm.CommitGroup
	stats  Stats
	// ctx is the reusable task execution context (task bodies never retain
	// it past Execute).
	ctx task.Ctx
}

// New assembles the runtime, allocating persistent state. Bounds are
// validated against the graph.
func New(cfg Config) (*Runtime, error) {
	if cfg.MCU == nil || cfg.Graph == nil || cfg.Store == nil {
		return nil, errors.New("ocelot: Config needs MCU, Graph, and Store")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	producers := map[string]bool{}
	for _, b := range cfg.Bounds {
		if cfg.Graph.Task(b.Consumer) == nil {
			return nil, fmt.Errorf("ocelot: bound on unknown consumer %q", b.Consumer)
		}
		if b.Producer == "" || cfg.Graph.Task(b.Producer) == nil {
			return nil, fmt.Errorf("ocelot: bound on %q has unknown producer %q", b.Consumer, b.Producer)
		}
		if b.Age <= 0 {
			return nil, fmt.Errorf("ocelot: bound %s<-%s needs a positive age", b.Consumer, b.Producer)
		}
		if b.Path != 0 && cfg.Graph.PathByID(b.Path) == nil {
			return nil, fmt.Errorf("ocelot: bound on %q names unknown path %d", b.Consumer, b.Path)
		}
		producers[b.Producer] = true
	}
	mem := cfg.MCU.Mem
	group, err := nvm.NewCommitGroup(mem, Owner, "boundary")
	if err != nil {
		return nil, err
	}
	ctl, err := nvm.AllocCommitted(mem, Owner, "control", wWords*8)
	if err != nil {
		return nil, err
	}
	// One 8-byte timestamp slot per bounded producer, in a committed region
	// of its own so the stamp becomes durable in the same selector flip as
	// the sample it describes.
	names := make([]string, 0, len(producers))
	for n := range producers {
		names = append(names, n)
	}
	sort.Strings(names)
	slot := make(map[string]int, len(names))
	for i, n := range names {
		slot[n] = i * 8
	}
	size := len(names) * 8
	if size == 0 {
		size = 8 // keep the region allocatable with no bounds configured
	}
	stamps, err := nvm.AllocCommitted(mem, Owner, "stamps", size)
	if err != nil {
		return nil, err
	}
	initDone, err := nvm.AllocVar[bool](mem, Owner, "initDone")
	if err != nil {
		return nil, err
	}
	ctl.Join(group)
	stamps.Join(group)
	cfg.Store.Join(group)
	if cfg.Telemetry.Enabled() {
		group.SetObserver(cfg.Telemetry.CommitFlip)
	}
	return &Runtime{cfg: cfg, ctl: ctl, stamps: stamps, slot: slot, init: initDone, group: group}, nil
}

// Stats returns the enforcement counters.
func (r *Runtime) Stats() Stats { return r.stats }

func (r *Runtime) word(w int) int64       { return int64(r.ctl.ReadUint64(w * 8)) }
func (r *Runtime) setWord(w int, v int64) { r.ctl.WriteUint64(w*8, uint64(v)) }

// Boot is the runtime entry point, re-invoked on every power-up.
func (r *Runtime) Boot() error {
	mcu := r.cfg.MCU
	prev := mcu.SetComponent(device.CompRuntime)
	defer mcu.SetComponent(prev)

	if !r.init.Get() {
		for w := 0; w < wWords; w++ {
			r.setWord(w, 0)
		}
		r.ctl.Commit()
		r.init.Set(true)
	}
	r.ctl.Reopen()
	r.stamps.Reopen()
	r.cfg.Store.Rollback()

	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return ErrStuck
		}
		if r.word(wAppDone) != 0 {
			return nil
		}
		mcu.Exec(checkCycles)
		path := r.cfg.Graph.Paths[r.word(wPathIdx)]
		t := path.Tasks[r.word(wTaskIdx)]
		if err := r.enforce(t, path.ID); err != nil {
			return err
		}
		if err := r.execute(t); err != nil {
			return err
		}
		r.stats.TaskRuns++
		if _, ok := r.slot[t.Name]; ok {
			r.stamp(t.Name)
		}
		r.advance(path)
	}
}

// enforce ages every bound guarding t and re-collects stale inputs before
// the consumer runs: the Ocelot move that replaces Mayfly's restart-forever
// adaptation. Each re-collection commits as an atomic boundary of its own
// (fresh sample + new timestamp in one selector flip), so a power failure
// during enforcement re-enforces from a consistent state.
func (r *Runtime) enforce(t *task.Task, pathID int) error {
	now := r.cfg.MCU.Now()
	for _, b := range r.cfg.Bounds {
		if b.Consumer != t.Name || (b.Path != 0 && b.Path != pathID) {
			continue
		}
		ts := int64(r.stamps.ReadUint64(r.slot[b.Producer]))
		if ts != 0 && now.Sub(simclock.Time(ts)) <= b.Age {
			continue
		}
		age := int64(-1) // never collected
		if ts != 0 {
			age = int64(now.Sub(simclock.Time(ts)))
		}
		r.stats.StaleDetected++
		r.cfg.Telemetry.InputStale(b.Producer, t.Name, age, now)
		p := r.cfg.Graph.Task(b.Producer)
		if err := r.execute(p); err != nil {
			return err
		}
		r.stamp(p.Name)
		r.ctl.Commit() // group-wide: sample + stamp durable in one flip
		r.stats.ReCollections++
		r.cfg.Telemetry.ReCollect(b.Producer, t.Name, r.cfg.MCU.Now())
		now = r.cfg.MCU.Now()
	}
	return nil
}

// execute runs one task body with app-component accounting.
func (r *Runtime) execute(t *task.Task) error {
	mcu := r.cfg.MCU
	r.ctx = task.Ctx{MCU: mcu, Store: r.cfg.Store, Task: t}
	prev := mcu.SetComponent(device.CompApp)
	err := t.Execute(&r.ctx)
	mcu.SetComponent(prev)
	if err != nil {
		return fmt.Errorf("ocelot: task %s: %w", t.Name, err)
	}
	return nil
}

// stamp stages the producer's collection timestamp; it becomes durable at
// the next group commit, atomically with the sample it describes.
func (r *Runtime) stamp(name string) {
	r.stamps.WriteUint64(r.slot[name], uint64(int64(r.cfg.MCU.Now())))
}

// advance moves to the next task, path, round, or completion, committing
// the finished task's outputs, its stamp, and the control advance in one
// selector flip.
func (r *Runtime) advance(path *task.Path) {
	next := r.word(wTaskIdx) + 1
	if int(next) < len(path.Tasks) {
		r.setWord(wTaskIdx, next)
		r.ctl.Commit()
		return
	}
	nextPath := r.word(wPathIdx) + 1
	if int(nextPath) < len(r.cfg.Graph.Paths) {
		r.setWord(wPathIdx, nextPath)
	} else {
		round := r.word(wRound) + 1
		if int(round) >= r.cfg.Rounds {
			r.setWord(wAppDone, 1)
			r.setWord(wTaskIdx, 0)
			r.ctl.Commit()
			return
		}
		r.setWord(wRound, round)
		r.setWord(wPathIdx, 0)
	}
	r.setWord(wTaskIdx, 0)
	r.ctl.Commit()
}

// HealthBounds is the declared bound set for the health benchmark: the
// Figure-5 MITD the ARTEMIS spec authors wrote, as an enforced bound —
// accelerometer data consumed by send on path 2 must be at most 5 minutes
// old. (bodyTemp deliberately gets no bound: its body accumulates samples,
// so it is not re-collection-safe.)
func HealthBounds() []Bound {
	return []Bound{{Producer: "accel", Consumer: "send", Age: 5 * simclock.Minute, Path: 2}}
}
