package monitor

import (
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/ir"
)

// interpreter is the reference engine: ir.Step over the monitor's own
// persistent env, so it stages into the committed region exactly what the
// compiled engine must stage.
type interpreter struct{ m *ir.Machine }

func (in interpreter) Step(_ *codegen.Frame, sl codegen.Slots, ev ir.Event) ([]ir.Failure, error) {
	return ir.Step(in.m, sl.(*persistentEnv), ev)
}

// UseReference makes every monitor set built until restore is called —
// including sets an OTA swap installs mid-run — step through the IR
// interpreter instead of its compiled machines. Tests using it must not
// run in parallel with others that build sets.
func UseReference() (restore func()) {
	prev := engineFor
	engineFor = func(_ *codegen.Machine, m *ir.Machine) stepper { return interpreter{m} }
	return func() { engineFor = prev }
}

// EngineOf names the engine stepping m: "compiled" or "interpreter".
func EngineOf(m *Monitor) string {
	switch m.engine.(type) {
	case *codegen.Machine:
		return "compiled"
	case interpreter:
		return "interpreter"
	}
	return "unknown"
}
