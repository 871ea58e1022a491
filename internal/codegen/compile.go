// Closure compilation: the engine every monitor runs on.
//
// Generate (codegen.go) emits Go source ahead of time; that path needs a Go
// compiler and so cannot serve specs compiled at deployment time or swapped
// over the air. Compile instead lowers a checked ir.Program to closure trees
// at runtime: identifiers are resolved to integer variable slots and event
// fields once, at compile time, and every expression and statement becomes a
// Go closure (expr.go). Stepping a compiled machine performs no map lookups,
// no scope construction, and no allocation — the wins the interpreter's
// per-event MapScope cannot have.
//
// Semantics are the interpreter's by construction: expressions that can
// fail or are not statically typed evaluate through the same ir.Apply /
// ir.ApplyUnary / ir.Coerce / Value.Truthy helpers ir.Step uses, and
// transition selection mirrors ir.Step exactly (first matching transition
// wins, implicit self-transition otherwise). ir.Step itself stays as the
// reference: the differential tests (compile_test.go and the system-level
// harness in internal/monitor) hold the compiled engine to it over
// generated machines and every example specification.

package codegen

import (
	"fmt"
	"math"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// Slots is the mutable machine configuration a compiled machine steps over:
// the state index plus one raw encoded word per declared variable, in
// declaration order, encoded exactly as ir.Value.Encode does. The monitor
// package implements it over its committed NVM region; VolatileSlots is the
// in-memory implementation for tests and differential harnesses.
type Slots interface {
	StateIdx() int
	SetStateIdx(i int)
	VarWord(i int) uint64
	SetVarWord(i int, w uint64)
}

// Frame is the per-instance scratch a compiled machine steps through. It
// exists so that steady-state dispatch allocates nothing: the failure
// buffer, the event copy, and the error slot live here and are reused on
// every Step. A Frame must not be shared between concurrently stepping
// machine instances; the compiled machines themselves are immutable and
// freely shared.
type Frame struct {
	slots Slots
	ev    ir.Event
	fails []ir.Failure
	// err carries the first runtime error of the current step out of the
	// closure tree; see valueFn.
	err error
}

// NewFrame returns an empty scratch frame.
func NewFrame() *Frame { return &Frame{} }

// stmtFn executes one compiled statement; errors go to fr.err.
type stmtFn func(fr *Frame)

// Machine is one closure-compiled state machine. It is immutable after
// Compile and safe for concurrent use with distinct Frames.
type Machine struct {
	name   string
	states []cstate
}

type cstate struct {
	name  string
	trans []ctrans
}

type ctrans struct {
	trigger ir.Trigger
	guard   boolFn // nil means always
	target  int
	body    []stmtFn
}

// Name returns the machine name.
func (cm *Machine) Name() string { return cm.name }

// Step delivers one event, mirroring ir.Step: the first transition of the
// current state whose trigger matches and whose guard holds fires; its body
// runs and the machine moves to the target state. With no matching
// transition the event is accepted silently. The returned slice aliases the
// frame's scratch buffer and is valid until the next Step on that frame.
func (cm *Machine) Step(fr *Frame, sl Slots, ev ir.Event) ([]ir.Failure, error) {
	si := sl.StateIdx()
	if si < 0 || si >= len(cm.states) {
		return nil, fmt.Errorf("ir: machine %s in invalid state %d", cm.name, si)
	}
	// Reset the scratch lazily: after a quiet step (no failures, no error)
	// both fields are already clean, and skipping the stores also skips
	// their write barriers on this innermost loop.
	fr.slots, fr.ev = sl, ev
	if len(fr.fails) != 0 {
		fr.fails = fr.fails[:0]
	}
	if fr.err != nil {
		fr.err = nil
	}
	st := &cm.states[si]
	for i := range st.trans {
		tr := &st.trans[i]
		if !tr.trigger.Matches(ev.Kind) {
			continue
		}
		// A guard that fails at runtime reads as false with fr.err set.
		if tr.guard != nil && !tr.guard(fr) {
			if fr.err != nil {
				return nil, fmt.Errorf("ir: machine %s state %s: guard: %w", cm.name, st.name, fr.err)
			}
			continue
		}
		for _, s := range tr.body {
			s(fr)
			if fr.err != nil {
				return nil, fmt.Errorf("ir: machine %s state %s: %w", cm.name, st.name, fr.err)
			}
		}
		sl.SetStateIdx(tr.target)
		return fr.fails, nil
	}
	return nil, nil
}

// Program is a compiled ir.Program: one compiled machine per source
// machine, in source order.
type Program struct {
	machines []*Machine
}

// Machine returns the compiled machine at source index i, or nil when i is
// out of range.
func (p *Program) Machine(i int) *Machine {
	if p == nil || i < 0 || i >= len(p.machines) {
		return nil
	}
	return p.machines[i]
}

// CompileProgram closure-compiles every machine of a program. It fails on
// the first machine CompileMachine rejects; checked programs (everything
// ir.Parse and transform.Compile return) always compile.
func CompileProgram(p *ir.Program) (*Program, error) {
	out := &Program{machines: make([]*Machine, len(p.Machines))}
	for i, m := range p.Machines {
		cm, err := CompileMachine(m)
		if err != nil {
			return nil, err
		}
		out.machines[i] = cm
	}
	return out, nil
}

// CompileMachine closure-compiles one machine. It fails on constructs whose
// compiled form could diverge from the interpreter — undeclared or
// string-typed variables, unknown statement or expression nodes,
// unresolvable transition targets — exactly the set ir.Machine.Check
// rejects; checked machines always compile.
func CompileMachine(m *ir.Machine) (*Machine, error) {
	cc := &compiler{m: m, slots: make(map[string]int, len(m.Vars)), types: make(map[string]ir.Type, len(m.Vars))}
	for i, v := range m.Vars {
		if v.Type == ir.TString {
			return nil, fmt.Errorf("codegen: machine %s: string variable %q cannot persist", m.Name, v.Name)
		}
		cc.slots[v.Name] = i
		cc.types[v.Name] = v.Type
	}
	cm := &Machine{name: m.Name, states: make([]cstate, len(m.States))}
	for si, st := range m.States {
		cs := cstate{name: st.Name, trans: make([]ctrans, len(st.Transitions))}
		for ti := range st.Transitions {
			tr := &st.Transitions[ti]
			target := m.StateIndex(tr.Target)
			if target < 0 {
				return nil, fmt.Errorf("codegen: machine %s: transition to unknown state %q", m.Name, tr.Target)
			}
			ct := ctrans{trigger: tr.Trigger, target: target}
			if tr.Guard != nil {
				g, err := cc.expr(tr.Guard)
				if err != nil {
					return nil, err
				}
				ct.guard = g.cond()
			}
			body, err := cc.stmts(tr.Body)
			if err != nil {
				return nil, err
			}
			ct.body = body
			cs.trans[ti] = ct
		}
		cm.states[si] = cs
	}
	return cm, nil
}

// compiler carries the per-machine symbol table through recursion.
type compiler struct {
	m     *ir.Machine
	slots map[string]int
	types map[string]ir.Type
}

func (cc *compiler) stmts(in []ir.Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(in))
	for _, s := range in {
		fn, err := cc.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (cc *compiler) stmt(s ir.Stmt) (stmtFn, error) {
	switch s := s.(type) {
	case ir.Assign:
		x, err := cc.expr(s.X)
		if err != nil {
			return nil, err
		}
		slot, ok := cc.slots[s.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: machine %s: assignment to undeclared %q", cc.m.Name, s.Name)
		}
		typ := cc.types[s.Name]
		// When the expression's static type fits the variable's, Coerce is
		// the identity (or the int→float widening) and Encode a direct bit
		// projection, so the statement collapses to one slot store.
		switch f := x.float(); {
		case typ == ir.TInt && x.i != nil:
			ix := x.i
			return func(fr *Frame) { fr.slots.SetVarWord(slot, uint64(ix(fr))) }, nil
		case typ == ir.TFloat && f != nil:
			return func(fr *Frame) { fr.slots.SetVarWord(slot, math.Float64bits(f(fr))) }, nil
		case typ == ir.TBool && x.b != nil:
			bx := x.b
			return func(fr *Frame) {
				var w uint64
				if bx(fr) {
					w = 1
				}
				fr.slots.SetVarWord(slot, w)
			}, nil
		}
		vx, name := x.value(), s.Name
		return func(fr *Frame) {
			v := vx(fr)
			if fr.err != nil {
				return
			}
			v, err := ir.Coerce(v, typ)
			if err != nil {
				fr.err = fmt.Errorf("assigning %q: %w", name, err)
				return
			}
			bits, err := v.Encode()
			if err != nil {
				fr.err = err
				return
			}
			fr.slots.SetVarWord(slot, bits)
		}, nil
	case ir.If:
		c, err := cc.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := cc.stmts(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := cc.stmts(s.Else)
		if err != nil {
			return nil, err
		}
		cond := c.cond()
		return func(fr *Frame) {
			branch := then
			if !cond(fr) {
				if fr.err != nil {
					return
				}
				branch = els
			}
			for _, fn := range branch {
				fn(fr)
				if fr.err != nil {
					return
				}
			}
		}, nil
	case ir.Fail:
		f := ir.Failure{Machine: cc.m.Name, Action: s.Action, Path: s.Path}
		return func(fr *Frame) {
			fr.fails = append(fr.fails, f)
		}, nil
	default:
		return nil, fmt.Errorf("codegen: machine %s: unknown statement %T", cc.m.Name, s)
	}
}

// VolatileSlots is an in-memory Slots implementation for tests and
// differential harnesses.
type VolatileSlots struct {
	state int
	words []uint64
}

// NewVolatileSlots returns slots initialised to the machine's initial state
// and variable values.
func NewVolatileSlots(m *ir.Machine) (*VolatileSlots, error) {
	s := &VolatileSlots{words: make([]uint64, len(m.Vars))}
	if err := s.reset(m); err != nil {
		return nil, err
	}
	return s, nil
}

// reset returns the slots to the machine's initial configuration.
func (s *VolatileSlots) reset(m *ir.Machine) error {
	for i, v := range m.Vars {
		bits, err := v.Init.Encode()
		if err != nil {
			return fmt.Errorf("codegen: machine %s variable %q: %w", m.Name, v.Name, err)
		}
		s.words[i] = bits
	}
	s.state = m.StateIndex(m.Initial)
	return nil
}

// StateIdx implements Slots.
func (s *VolatileSlots) StateIdx() int { return s.state }

// SetStateIdx implements Slots.
func (s *VolatileSlots) SetStateIdx(i int) { s.state = i }

// VarWord implements Slots.
func (s *VolatileSlots) VarWord(i int) uint64 { return s.words[i] }

// SetVarWord implements Slots.
func (s *VolatileSlots) SetVarWord(i int, w uint64) { s.words[i] = w }
