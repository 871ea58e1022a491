package monitor

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// Owner is the NVM accounting label for monitor state; Table 2 reports its
// footprint separately from the runtime's.
const Owner = "monitor"

// Event is an observable runtime event plus the persistent sequence number
// the runtime assigns to it. The sequence number makes event delivery
// idempotent: re-delivering the same event after a reboot is safe.
type Event struct {
	ir.Event
	Seq uint64
}

func actionFromWord(w uint64) action.Action { return action.Action(int64(w)) }

// Monitor is one power-failure-resilient machine instance.
type Monitor struct {
	machine *ir.Machine
	env     persistentEnv
	binding transform.Binding
	tel     *telemetry.Tracer
	// engine steps the machine; frame is its reusable scratch, shared by
	// the whole set.
	engine stepper
	frame  *codegen.Frame
}

// stepper is a monitor's execution engine. NewSet always installs the
// closure-compiled *codegen.Machine.
type stepper interface {
	Step(fr *codegen.Frame, sl codegen.Slots, ev ir.Event) ([]ir.Failure, error)
}

// engineFor picks the engine NewSet installs for machine m: its compiled
// form cm. It is a variable only so that tests can substitute the IR
// interpreter, the reference the compiled engine is held to
// (export_test.go).
var engineFor = func(cm *codegen.Machine, m *ir.Machine) stepper { return cm }

// Machine returns the monitor's state machine definition.
func (m *Monitor) Machine() *ir.Machine { return m.machine }

// deliver processes one event exactly once. If the event was already
// processed before a power failure interrupted the set, the committed
// verdict is returned without re-stepping the machine.
func (m *Monitor) deliver(ev Event) ([]ir.Failure, error) {
	if ev.Seq == 0 {
		return nil, fmt.Errorf("monitor: event sequence numbers start at 1")
	}
	if m.env.lastSeq() == ev.Seq {
		return m.env.storedVerdicts(), nil
	}
	// Capture the pre-step state only when tracing; replayed deliveries
	// return above, so a transition is emitted exactly once per step.
	var before int
	if m.tel != nil {
		before = m.env.State()
	}
	fs, err := m.engine.Step(m.frame, &m.env, ev.Event)
	if err != nil {
		return nil, err
	}
	if err := m.env.storeVerdicts(fs); err != nil {
		return nil, err
	}
	m.env.setLastSeq(ev.Seq)
	m.env.Commit()
	if m.tel != nil {
		if after := m.env.State(); after != before {
			m.tel.MonitorTransition(m.machine.Name, m.stateName(before), m.stateName(after), ev.Time)
		}
		for _, f := range fs {
			m.tel.PropertyFail(f.Machine, f.Action.String(), f.Path, ev.Time)
		}
	}
	return fs, nil
}

// Commit exposes the env's atomic commit to deliver.
func (e *persistentEnv) Commit() { e.c.Commit() }

// Reset returns the monitor to its initial configuration, clearing replay
// bookkeeping (first-boot hard reset).
func (m *Monitor) Reset() { m.env.reset(true) }

// reinit returns the machine to its initial state and variables but keeps
// the event-replay bookkeeping; used when a path restarts (§3.3).
func (m *Monitor) reinit() { m.env.reset(false) }

// rollback discards uncommitted staging after a reboot.
func (m *Monitor) rollback() { m.env.rollback() }

// Backing exposes the monitor's committed region so an integrity guard can
// wrap it; Reset is the matching recovery callback (the initial state is
// safe by construction — the FSM re-arms on the next startTask).
func (m *Monitor) Backing() *nvm.Committed { return m.env.c }

// State returns the current state name, for inspection and tests.
func (m *Monitor) State() string { return m.stateName(m.env.State()) }

func (m *Monitor) stateName(i int) string {
	if i < 0 || i >= len(m.machine.States) {
		return fmt.Sprintf("invalid(%d)", i)
	}
	return m.machine.States[i].Name
}

// VarValue reads a machine variable, for inspection and tests.
func (m *Monitor) VarValue(name string) (ir.Value, bool) { return m.env.GetVar(name) }

// Set is the complete monitor deployment of one application: every machine
// generated from the property specification, each with persistent state.
type Set struct {
	monitors []*Monitor
	// scratch backs the slice Deliver returns; see Deliver's contract.
	scratch []ir.Failure
}

// NewSet allocates persistent state for every machine of a compiled
// specification and installs the closure-compiled machines (res.Stepper)
// as their engine. Call Reset once on the very first boot (the paper's
// resetMonitor hard reset); on later boots call Rollback then re-deliver the
// in-flight event (monitorFinalize).
func NewSet(mem *nvm.Memory, res *transform.Result) (*Set, error) {
	if len(res.Program.Machines) != len(res.Bindings) {
		return nil, fmt.Errorf("monitor: %d machines but %d bindings", len(res.Program.Machines), len(res.Bindings))
	}
	prog, err := res.Stepper()
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	// One frame serves the whole set: monitors within a set step strictly
	// sequentially (Deliver iterates them in order), and Step fully resets
	// the frame's scratch before using it.
	frame := codegen.NewFrame()
	// One backing array holds every Monitor of the set; the pointer slice
	// preserves stable *Monitor identities for inspectors and swaps.
	backing := make([]Monitor, len(res.Program.Machines))
	s := &Set{monitors: make([]*Monitor, 0, len(backing))}
	for i, m := range res.Program.Machines {
		mon := &backing[i]
		if err := mon.env.init(mem, Owner, m); err != nil {
			return nil, err
		}
		mon.machine = m
		mon.binding = res.Bindings[i]
		mon.engine = engineFor(prog.Machine(i), m)
		mon.frame = frame
		s.monitors = append(s.monitors, mon)
	}
	return s, nil
}

// Monitors returns the set's monitors.
func (s *Set) Monitors() []*Monitor { return s.monitors }

// SetTracer attaches a telemetry tracer to every monitor in the set, which
// then emits MonitorTransition and PropertyFail events from Deliver. All
// deployment styles (local, remote) funnel through the same
// Monitor instances, so this covers them uniformly. A nil tracer disables
// emission.
func (s *Set) SetTracer(t *telemetry.Tracer) {
	for _, m := range s.monitors {
		m.tel = t
	}
}

// Monitor returns the monitor for the named machine, or nil.
func (s *Set) Monitor(name string) *Monitor {
	for _, m := range s.monitors {
		if m.machine.Name == name {
			return m
		}
	}
	return nil
}

// Reset hard-resets every monitor (first-boot initialisation).
func (s *Set) Reset() {
	for _, m := range s.monitors {
		m.Reset()
	}
}

// Rollback discards uncommitted staging in every monitor; the runtime calls
// it on every reboot before re-delivering the in-flight event.
func (s *Set) Rollback() {
	for _, m := range s.monitors {
		m.rollback()
	}
}

// Deliver sends one event to every monitor and returns all signalled
// failures. It is idempotent per event sequence number, so re-delivery
// after a power failure finalises interrupted processing without
// double-stepping any machine.
//
// The returned slice aliases the set's reusable scratch and is valid only
// until the next Deliver on this set — the same contract as
// codegen.Machine.Step. Callers that need the failures past that point
// must copy them.
func (s *Set) Deliver(ev Event) ([]ir.Failure, error) {
	all := s.scratch[:0]
	for _, m := range s.monitors {
		fs, err := m.deliver(ev)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	s.scratch = all
	return all, nil
}

// resetOnPathRestart reports whether a property kind's monitor must be
// re-initialised when its path restarts (§3.3: "monitors linked to already
// initiated tasks within that path must be re-initialized").
//
// Kinds tracking an in-flight execution (maxTries attempt counts,
// maxDuration start times, dpData) reset; kinds embodying cross-restart
// obligations do not: collect accumulates samples across the restarts that
// gather them (§5.1 Path #1), and MITD counts its maxAttempt across the very
// path restarts it causes (Figure 13).
func resetOnPathRestart(k spec.Kind) bool {
	switch k {
	case spec.KindCollect, spec.KindMITD:
		return false
	}
	return true
}

// ResetPath re-initialises the monitors bound to the given path, applying
// the per-kind policy above. Unscoped monitors (binding path 0, merged
// tasks) re-initialise whenever any of their task's paths restarts: their
// in-flight tracking refers to the execution that the restart abandons. The
// runtime calls this when it restarts or skips a path.
func (s *Set) ResetPath(id int) {
	for _, m := range s.monitors {
		if !resetOnPathRestart(m.binding.Kind) {
			continue
		}
		if m.binding.Path == id || (m.binding.Path == 0 && containsInt(m.binding.AllPaths, id)) {
			m.reinit()
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Decision is the runtime action arbitrated from a set of failures.
type Decision struct {
	Action  action.Action
	Path    int    // the path the action applies to (0 = current)
	Machine string // the machine whose failure won arbitration
}

// Decide resolves concurrent failures into the single action the runtime
// executes: the most severe action wins; among equals, the first signalled.
// Failures scoped to a path other than the current one are ignored — their
// obligation belongs to a different traversal.
func Decide(fs []ir.Failure, currentPath int) Decision {
	var d Decision
	for _, f := range fs {
		if f.Path != 0 && f.Path != currentPath {
			continue
		}
		if f.Action > d.Action {
			d = Decision{Action: f.Action, Path: f.Path, Machine: f.Machine}
		}
	}
	if d.Path == 0 {
		d.Path = currentPath
	}
	return d
}
