package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// corpus is the machine zoo the differential tests drive: each entry
// exercises a distinct slice of the expression/statement semantics the
// closure compiler must reproduce bit-for-bit, including the runtime
// errors (division by zero, non-boolean guards, lossy float→int stores).
var corpus = []struct {
	name string
	src  string
}{
	{"alternation", `
machine SendAlternation {
    var sent: bool = false
    var burst: int = 0
    initial state Watch {
        on end [task == "sample"] -> Watch { sent = false; burst = 0; }
        on end [task == "send" && !sent] -> Watch { sent = true; }
        on start [task == "send" && sent && burst < 2] -> Watch { burst = burst + 1; fail restartTask; }
        on start [task == "send" && sent && burst >= 2] -> Watch { burst = 0; sent = false; fail completePath; }
    }
}`},
	{"arith", `
machine Arith {
    var acc: int = 1
    var avg: float = 0.0
    var n: int = 0
    initial state Run {
        on end [task == "mul"] -> Run { acc = acc * 3 - 1; n = n + 1; avg = (avg * (n - 1) + data) / n; }
        on end [task == "mod"] -> Run { acc = acc % 7; }
        on end [task == "div"] -> Run { acc = acc / n; }
        on start [acc > 1000 || avg < -0.5] -> Done { fail skipPath; }
    }
    state Done {
    }
}`},
	{"guards", `
machine Guards {
    var armed: bool = false
    var t0: int = 0
    initial state Idle {
        on start [task == "work"] -> Busy { armed = true; t0 = t; }
        on any [energy < 10.0] -> Idle { fail skipTask; }
    }
    state Busy {
        on end [task == "work" && t - t0 > 500] -> Idle { armed = false; fail restartTask; }
        on end [task == "work"] -> Idle { armed = false; }
    }
}`},
	{"branches", `
machine Branches {
    var hi: int = 0
    var lo: int = 0
    initial state S {
        on end -> S {
            if data >= 50.0 {
                hi = hi + 1;
                if hi % 3 == 0 { fail restartPath; }
            } else {
                lo = lo + 1;
                if !(lo < 4) { lo = 0; fail skipTask; }
            }
        }
    }
}`},
	{"coerce", `
machine Coerce {
    var whole: int = 0
    var mix: float = 1.5
    initial state S {
        on end [task == "widen"] -> S { mix = whole + 2; }
        on end [task == "narrow"] -> S { whole = data; }
        on end [task == "neg"] -> S { whole = -whole; mix = -mix; }
    }
}`},
	{"badguard", `
machine BadGuard {
    var x: int = 0
    initial state S {
        on end [task == "trip"] -> T { x = x + 1; }
        on end [data] -> S { x = 0; }
    }
    state T {
        on end [x / (x - 1) > 0] -> S { fail skipTask; }
    }
}`},
}

// benchEvents builds a deterministic pseudo-random event stream. Data
// values are drawn from a small set so coercion edge cases (integral and
// non-integral floats, zero divisors) actually occur.
func eventStream(seed int64, n int) []ir.Event {
	r := rand.New(rand.NewSource(seed))
	tasks := []string{"sample", "send", "work", "mul", "mod", "div", "widen", "narrow", "neg", "trip"}
	data := []float64{0, 1, 2, 7, 49.5, 50, 64, -3, 100.25}
	evs := make([]ir.Event, n)
	for i := range evs {
		kind := ir.EvStart
		if r.Intn(2) == 1 {
			kind = ir.EvEnd
		}
		evs[i] = ir.Event{
			Kind:   kind,
			Task:   tasks[r.Intn(len(tasks))],
			Time:   simclock.Time(i * 137),
			Path:   1 + r.Intn(3),
			Data:   data[r.Intn(len(data))],
			Energy: float64(r.Intn(2000)) / 2.0,
		}
	}
	return evs
}

// diffStep drives one event through both engines and fails the test on any
// observable divergence: failures, errors, state index, or variable words.
// Both engines keep stepping after an error — the partial writes an
// aborted body leaves behind must match too. It returns the (shared) step
// error.
func diffStep(t *testing.T, m *ir.Machine, env *ir.VolatileEnv, cm *Machine, fr *Frame, sl *VolatileSlots, ev ir.Event) error {
	t.Helper()
	wantFs, wantErr := ir.Step(m, env, ev)
	gotFs, gotErr := cm.Step(fr, sl, ev)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%v: error divergence: interpreter %v, compiled %v", ev, wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%v: error text divergence:\n  interpreter: %v\n  compiled:    %v", ev, wantErr, gotErr)
	}
	if len(wantFs) != len(gotFs) {
		t.Fatalf("%v: failure count divergence: interpreter %v, compiled %v", ev, wantFs, gotFs)
	}
	for i := range wantFs {
		if wantFs[i] != gotFs[i] {
			t.Fatalf("%v: failure %d divergence: interpreter %v, compiled %v", ev, i, wantFs[i], gotFs[i])
		}
	}
	if env.State() != sl.StateIdx() {
		t.Fatalf("%v: state divergence: interpreter %d, compiled %d", ev, env.State(), sl.StateIdx())
	}
	for i, v := range m.Vars {
		want, _ := env.GetVar(v.Name)
		bits, err := want.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", v.Name, err)
		}
		if got := sl.VarWord(i); got != bits {
			t.Fatalf("%v: var %q divergence: interpreter %#x, compiled %#x", ev, v.Name, bits, got)
		}
	}
	return wantErr
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			prog := ir.MustParse(tc.src)
			m := prog.Machines[0]
			cm, err := CompileMachine(m)
			if err != nil {
				t.Fatalf("CompileMachine: %v", err)
			}
			if cm.Name() != m.Name {
				t.Fatalf("compiled name %q, want %q", cm.Name(), m.Name)
			}
			for seed := int64(1); seed <= 8; seed++ {
				env := ir.NewVolatileEnv(m)
				sl, err := NewVolatileSlots(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range eventStream(seed, 400) {
					diffStep(t, m, env, cm, sharedFrame, sl, ev)
				}
			}
		})
	}
}

// genMachine builds a random checked machine for the differential tests.
// It draws variables of all three persistent types, every unary and binary
// operator (including / and %), mixed int/float operands and nested If,
// and, with a fixed share of expressions, deliberately ill-typed shapes:
// string ordering, non-bool guards and conditions, % on floats, negated
// bools, and float values narrowed into int variables. Expressions are
// mostly type-directed so that a good share of events steps cleanly
// instead of aborting on the first error.
func genMachine(r *rand.Rand, name string) *ir.Machine {
	g := &machineGen{r: r}
	m := &ir.Machine{Name: name, Initial: "S0"}
	types := []ir.Type{ir.TInt, ir.TFloat, ir.TBool}
	for i, n := 0, 3+r.Intn(4); i < n; i++ {
		typ := types[i%len(types)]
		if i >= len(types) {
			typ = types[r.Intn(len(types))]
		}
		v := ir.VarDecl{Name: fmt.Sprintf("v%d", i), Type: typ}
		switch typ {
		case ir.TInt:
			v.Init = ir.Int(int64(r.Intn(5) - 1))
		case ir.TFloat:
			v.Init = ir.Float(float64(r.Intn(9)-2) / 2)
		case ir.TBool:
			v.Init = ir.Bool(r.Intn(2) == 0)
		}
		m.Vars = append(m.Vars, v)
	}
	g.vars = m.Vars
	nStates := 1 + r.Intn(3)
	for si := 0; si < nStates; si++ {
		st := ir.State{Name: fmt.Sprintf("S%d", si)}
		for ti, n := 0, 1+r.Intn(4); ti < n; ti++ {
			tr := ir.Transition{
				Trigger: ir.Trigger(r.Intn(3)),
				Target:  fmt.Sprintf("S%d", r.Intn(nStates)),
				Body:    g.stmts(2),
			}
			if r.Intn(5) != 0 {
				tr.Guard = g.cond()
			}
			st.Transitions = append(st.Transitions, tr)
		}
		m.States = append(m.States, st)
	}
	return m
}

type machineGen struct {
	r    *rand.Rand
	vars []ir.VarDecl
}

// genTasks are the task names genMachine compares against; eventStream
// draws from a superset, so task guards both match and miss.
var genTasks = []string{"sample", "send", "work", "div", "trip"}

func (g *machineGen) stmts(depth int) []ir.Stmt {
	var out []ir.Stmt
	for i, n := 0, g.r.Intn(4); i < n; i++ {
		switch k := g.r.Intn(6); {
		case k < 3:
			v := g.vars[g.r.Intn(len(g.vars))]
			want := v.Type
			if g.r.Intn(6) == 0 {
				want = ir.TFloat // narrows into int, fails into bool
			}
			out = append(out, ir.Assign{Name: v.Name, X: g.expr(want, 3)})
		case k < 5 && depth > 0:
			out = append(out, ir.If{Cond: g.cond(), Then: g.stmts(depth - 1), Else: g.stmts(depth - 1)})
		default:
			out = append(out, ir.Fail{Action: action.Action(1 + g.r.Intn(int(action.CompletePath))), Path: g.r.Intn(4)})
		}
	}
	return out
}

// cond is a guard or If condition: a bool expression, or now and then an
// expression of another type, which must fail Truthy identically.
func (g *machineGen) cond() ir.Expr {
	if g.r.Intn(10) == 0 {
		return g.expr([]ir.Type{ir.TInt, ir.TFloat, ir.TString}[g.r.Intn(3)], 2)
	}
	return g.expr(ir.TBool, 3)
}

func (g *machineGen) leaf(want ir.Type) ir.Expr {
	var names []string
	for _, v := range g.vars {
		if v.Type == want {
			names = append(names, v.Name)
		}
	}
	switch want {
	case ir.TInt:
		names = append(names, "t", "path")
	case ir.TFloat:
		names = append(names, "data", "energy")
	case ir.TString:
		names = append(names, "task")
	}
	if len(names) > 0 && g.r.Intn(3) != 0 {
		return ir.Ident{Name: names[g.r.Intn(len(names))]}
	}
	switch want {
	case ir.TInt:
		return ir.Lit{V: ir.Int(int64(g.r.Intn(7) - 2))}
	case ir.TFloat:
		return ir.Lit{V: ir.Float(float64(g.r.Intn(11)-3) / 2)}
	case ir.TBool:
		return ir.Lit{V: ir.Bool(g.r.Intn(2) == 0)}
	default:
		return ir.Lit{V: ir.Str(genTasks[g.r.Intn(len(genTasks))])}
	}
}

// expr returns an expression that has type want when it evaluates cleanly,
// except for the ill-typed shapes it mixes in on purpose.
func (g *machineGen) expr(want ir.Type, depth int) ir.Expr {
	r := g.r
	if depth == 0 || r.Intn(4) == 0 {
		return g.leaf(want)
	}
	if r.Intn(12) == 0 {
		return g.illTyped(depth - 1)
	}
	num := func() ir.Type { return []ir.Type{ir.TInt, ir.TFloat}[r.Intn(2)] }
	switch want {
	case ir.TBool:
		switch r.Intn(6) {
		case 0:
			return ir.Unary{Op: "!", X: g.expr(ir.TBool, depth-1)}
		case 1:
			return ir.Binary{Op: []string{"&&", "||"}[r.Intn(2)], L: g.expr(ir.TBool, depth-1), R: g.expr(ir.TBool, depth-1)}
		case 2:
			return ir.Binary{Op: []string{"<", "<=", ">", ">="}[r.Intn(4)], L: g.expr(num(), depth-1), R: g.expr(num(), depth-1)}
		case 3:
			l, rt := num(), num()
			if r.Intn(3) == 0 {
				l, rt = ir.TBool, ir.TBool
			}
			return ir.Binary{Op: []string{"==", "!="}[r.Intn(2)], L: g.expr(l, depth-1), R: g.expr(rt, depth-1)}
		case 4:
			task, lit := ir.Expr(ir.Ident{Name: "task"}), g.leaf(ir.TString)
			if r.Intn(2) == 0 {
				task, lit = lit, task
			}
			return ir.Binary{Op: []string{"==", "!="}[r.Intn(2)], L: task, R: lit}
		default:
			return g.leaf(ir.TBool)
		}
	case ir.TInt, ir.TFloat:
		switch r.Intn(5) {
		case 0:
			return ir.Unary{Op: "-", X: g.expr(want, depth-1)}
		case 1:
			// Division and modulo can fail at runtime on a zero divisor.
			op := "/"
			if want == ir.TInt && r.Intn(2) == 0 {
				op = "%"
			}
			return ir.Binary{Op: op, L: g.expr(want, depth-1), R: g.expr(want, depth-1)}
		default:
			l, rt := want, want
			if want == ir.TFloat {
				l, rt = num(), num() // mixed operands widen
			}
			return ir.Binary{Op: []string{"+", "-", "*"}[r.Intn(3)], L: g.expr(l, depth-1), R: g.expr(rt, depth-1)}
		}
	}
	return g.leaf(want)
}

// illTyped returns a shape that type-checks structurally but fails (or
// coerces) at runtime: string ordering, % on floats, negated bools,
// arithmetic on bools, logic on numbers, string-vs-number equality.
func (g *machineGen) illTyped(depth int) ir.Expr {
	anyExpr := func() ir.Expr {
		return g.expr([]ir.Type{ir.TInt, ir.TFloat, ir.TBool, ir.TString}[g.r.Intn(4)], depth)
	}
	switch g.r.Intn(6) {
	case 0:
		return ir.Binary{Op: []string{"<", ">="}[g.r.Intn(2)], L: g.leaf(ir.TString), R: g.leaf(ir.TString)}
	case 1:
		return ir.Binary{Op: "%", L: g.expr(ir.TFloat, depth), R: g.expr(ir.TFloat, depth)}
	case 2:
		return ir.Unary{Op: []string{"-", "!"}[g.r.Intn(2)], X: anyExpr()}
	case 3:
		return ir.Binary{Op: []string{"+", "*", "/"}[g.r.Intn(3)], L: anyExpr(), R: anyExpr()}
	case 4:
		return ir.Binary{Op: []string{"&&", "||"}[g.r.Intn(2)], L: anyExpr(), R: anyExpr()}
	default:
		return ir.Binary{Op: []string{"==", "!="}[g.r.Intn(2)], L: anyExpr(), R: anyExpr()}
	}
}

// genSeeds are the fixed generator seeds behind the random machines the
// differential tests and the fuzz target step.
const genSeeds = 200

// TestCompiledMatchesInterpreterRandom holds the closure compiler to the
// interpreter over generated machines: identical failures, states,
// variable words and error texts on every event.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	errs, steps := 0, 0
	for seed := int64(1); seed <= genSeeds; seed++ {
		m := genMachine(rand.New(rand.NewSource(seed)), fmt.Sprintf("Gen%d", seed))
		if err := m.Check(); err != nil {
			t.Fatalf("seed %d: generated machine does not check: %v", seed, err)
		}
		cm, err := CompileMachine(m)
		if err != nil {
			t.Fatalf("seed %d: CompileMachine: %v", seed, err)
		}
		env := ir.NewVolatileEnv(m)
		sl, err := NewVolatileSlots(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range eventStream(seed, 200) {
			if diffStep(t, m, env, cm, sharedFrame, sl, ev) != nil {
				errs++
			}
			steps++
		}
	}
	// Clean and failing steps must both be well represented, or the
	// comparison is vacuous on one side.
	if errs == 0 || errs*2 > steps {
		t.Fatalf("%d of %d steps errored; want some, but under half", errs, steps)
	}
}

// sharedFrame is reused across every machine and step of the differential
// test, proving frames are reusable the way monitors reuse them.
var sharedFrame = NewFrame()

func TestCompileProgram(t *testing.T) {
	var src string
	for _, tc := range corpus {
		src += tc.src + "\n"
	}
	prog := ir.MustParse(src)
	cp, err := CompileProgram(prog)
	if err != nil {
		t.Fatalf("checked program did not compile: %v", err)
	}
	for i, m := range prog.Machines {
		if cp.Machine(i) == nil || cp.Machine(i).Name() != m.Name {
			t.Fatalf("machine %d: compiled slot mismatch", i)
		}
	}
	if cp.Machine(-1) != nil || cp.Machine(len(prog.Machines)) != nil {
		t.Fatal("out-of-range Machine() must be nil")
	}
}

func TestCompileMachineRejectsUncheckable(t *testing.T) {
	// Hand-built (unchecked) machines with constructs the compiler must
	// refuse rather than diverge from the interpreter on.
	bad := []*ir.Machine{
		{Name: "strvar", Initial: "S",
			Vars:   []ir.VarDecl{{Name: "s", Type: ir.TString, Init: ir.Str("")}},
			States: []ir.State{{Name: "S"}}},
		{Name: "undeclared", Initial: "S",
			States: []ir.State{{Name: "S", Transitions: []ir.Transition{
				{Trigger: ir.TrigAny, Target: "S", Body: []ir.Stmt{ir.Assign{Name: "ghost", X: ir.Lit{V: ir.Int(1)}}}},
			}}}},
		{Name: "badtarget", Initial: "S",
			States: []ir.State{{Name: "S", Transitions: []ir.Transition{
				{Trigger: ir.TrigAny, Target: "Nowhere"},
			}}}},
	}
	for _, m := range bad {
		if _, err := CompileMachine(m); err == nil {
			t.Errorf("machine %s: expected compile error", m.Name)
		}
		if err := m.Check(); err == nil {
			t.Errorf("machine %s: Check accepts what the compiler rejects", m.Name)
		}
	}
	// Compilation is total or fails: one bad machine fails the program.
	good := ir.MustParse(corpus[0].src).Machines[0]
	if cp, err := CompileProgram(&ir.Program{Machines: []*ir.Machine{good, bad[0]}}); err == nil || cp != nil {
		t.Fatalf("program with an uncompilable machine: got %v, %v; want an error", cp, err)
	}
}

// fuzzGenerated is how many generated machines (genMachine seeds 1..n)
// follow the hand-written corpus in FuzzStepEquivalence's machine pool.
const fuzzGenerated = 8

// FuzzStepEquivalence fuzzes event streams through both engines over the
// whole corpus plus fuzzGenerated generated machines — the seed corpus runs
// in tier-1 `go test`, and the weekly deep-chaos job extends it (-fuzz).
// Any divergence in failures, errors, states, or variable words is a bug in
// one engine or the other.
func FuzzStepEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte("send/50"))
	f.Add(int64(42), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(5), []byte("div/0 mod/7 narrow/49.5"))
	f.Add(int64(-3), uint8(2), []byte{0xff, 0x80, 0x01})
	for k := 0; k < fuzzGenerated; k++ {
		f.Add(int64(k), uint8(len(corpus)+k), []byte("sample/1 send/0 trip/-3 work/64 div/2"))
	}
	type engine struct {
		m   *ir.Machine
		cm  *Machine
		env *ir.VolatileEnv
		sl  *VolatileSlots
		fr  *Frame
	}
	var machines []*ir.Machine
	for _, tc := range corpus {
		machines = append(machines, ir.MustParse(tc.src).Machines[0])
	}
	for k := int64(1); k <= fuzzGenerated; k++ {
		machines = append(machines, genMachine(rand.New(rand.NewSource(k)), fmt.Sprintf("Gen%d", k)))
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, raw []byte) {
		m := machines[int(pick)%len(machines)]
		cm, err := CompileMachine(m)
		if err != nil {
			t.Fatalf("CompileMachine: %v", err)
		}
		sl, err := NewVolatileSlots(m)
		if err != nil {
			t.Fatal(err)
		}
		e := engine{m: m, cm: cm, env: ir.NewVolatileEnv(m), sl: sl, fr: NewFrame()}
		tasks := []string{"sample", "send", "work", "mul", "mod", "div", "widen", "narrow", "neg", "trip"}
		r := rand.New(rand.NewSource(seed))
		for i, b := range raw {
			ev := ir.Event{
				Kind:   ir.EventKind(int(b) % 2),
				Task:   tasks[(int(b)>>1)%len(tasks)],
				Time:   simclock.Time(i * int(b)),
				Path:   1 + int(b)%4,
				Data:   float64(int8(b)) / 2.0,
				Energy: float64(r.Intn(100)),
			}
			diffStep(t, e.m, e.env, e.cm, e.fr, e.sl, ev)
		}
	})
}

func TestCompiledStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	prog := ir.MustParse(corpus[0].src)
	m := prog.Machines[0]
	cm, err := CompileMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewVolatileSlots(m)
	if err != nil {
		t.Fatal(err)
	}
	frame := NewFrame()
	evs := []ir.Event{
		{Kind: ir.EvEnd, Task: "sample", Time: 1, Path: 1},
		{Kind: ir.EvEnd, Task: "send", Time: 2, Path: 1},
		{Kind: ir.EvStart, Task: "send", Time: 3, Path: 1}, // signals a failure
	}
	// Warm the failure buffer once, then dispatch must be allocation-free
	// even on failure-signalling steps.
	for _, ev := range evs {
		if _, err := cm.Step(frame, sl, ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, ev := range evs {
			if _, err := cm.Step(frame, sl, ev); err != nil {
				panic(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled dispatch allocated %.1f objects per 3-event burst, want 0", allocs)
	}
}

func BenchmarkCompiledStep(b *testing.B) {
	benchStep(b, func(m *ir.Machine) func(ir.Event) {
		cm, err := CompileMachine(m)
		if err != nil {
			b.Fatal(err)
		}
		sl, err := NewVolatileSlots(m)
		if err != nil {
			b.Fatal(err)
		}
		frame := NewFrame()
		return func(ev ir.Event) {
			if _, err := cm.Step(frame, sl, ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInterpretedStep(b *testing.B) {
	benchStep(b, func(m *ir.Machine) func(ir.Event) {
		env := ir.NewVolatileEnv(m)
		return func(ev ir.Event) {
			if _, err := ir.Step(m, env, ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchStep(b *testing.B, mk func(*ir.Machine) func(ir.Event)) {
	m := ir.MustParse(corpus[0].src).Machines[0]
	step := mk(m)
	evs := eventStream(1, 64)
	// Drop the error-provoking tasks; both engines would abort identically
	// but a benchmark wants the steady state.
	ok := evs[:0]
	for _, ev := range evs {
		if ev.Task != "div" && ev.Task != "narrow" && ev.Task != "trip" {
			ok = append(ok, ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(ok[i%len(ok)])
	}
}
