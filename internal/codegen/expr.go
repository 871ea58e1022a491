package codegen

import (
	"fmt"
	"math"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// Expression compilation. Every expression compiles once, to one of two
// kinds of closure. An expression whose static type is bool, int or float
// and whose evaluation cannot fail becomes a typed closure returning a
// machine word: no ir.Value boxing between tree nodes and no error channel.
// Every other shape — division and modulo (zero divisors), strings, and
// operands of the wrong type — becomes a generic node that evaluates
// through ir.Apply, ir.ApplyUnary and Value.Truthy, so its results and
// error texts are the interpreter's. A generic node boxes whatever typed
// children it has; a typed node has only typed children.
//
// The typed closures mirror ir.Apply case for case: int/int equality is
// exact, orderings widen both sides to float64, int arithmetic stays in
// int64 and is widened once where it meets a float.

// boolFn evaluates a statically boolean expression that cannot fail. A
// guard or If condition is always a boolFn; when its expression can fail,
// the closure reports false and leaves the error in fr.err.
type boolFn func(fr *Frame) bool

// intFn evaluates a statically integer expression that cannot fail.
type intFn func(fr *Frame) int64

// floatFn evaluates a statically numeric expression that cannot fail,
// projected to float64 under ir's widening rules.
type floatFn func(fr *Frame) float64

// valueFn evaluates a generic expression node; on a runtime error it sets
// fr.err and returns the zero Value.
type valueFn func(fr *Frame) ir.Value

// cexpr is one compiled expression. Exactly one field is set: b, i or f
// for a typed closure, v for a generic node.
type cexpr struct {
	b boolFn
	i intFn
	f floatFn
	v valueFn
}

// value returns c as a generic node, boxing a typed closure.
func (c cexpr) value() valueFn {
	switch {
	case c.b != nil:
		b := c.b
		return func(fr *Frame) ir.Value { return ir.Bool(b(fr)) }
	case c.i != nil:
		i := c.i
		return func(fr *Frame) ir.Value { return ir.Int(i(fr)) }
	case c.f != nil:
		f := c.f
		return func(fr *Frame) ir.Value { return ir.Float(f(fr)) }
	}
	return c.v
}

// float returns c as a float64 closure when it is statically numeric (an
// int closure is widened at this boundary), or nil.
func (c cexpr) float() floatFn {
	if c.i != nil {
		i := c.i
		return func(fr *Frame) float64 { return float64(i(fr)) }
	}
	return c.f
}

// cond returns c as a guard or If condition: its truthiness, with a
// non-boolean value or a failed evaluation reported as false plus fr.err.
func (c cexpr) cond() boolFn {
	if c.b != nil {
		return c.b
	}
	v := c.value()
	return func(fr *Frame) bool {
		x := v(fr)
		if fr.err != nil {
			return false
		}
		ok, err := x.Truthy()
		if err != nil {
			fr.err = err
		}
		return ok
	}
}

func (cc *compiler) expr(e ir.Expr) (cexpr, error) {
	switch e := e.(type) {
	case ir.Lit:
		switch v := e.V; v.T {
		case ir.TBool:
			return cexpr{b: func(*Frame) bool { return v.B }}, nil
		case ir.TInt:
			return cexpr{i: func(*Frame) int64 { return v.I }}, nil
		case ir.TFloat:
			return cexpr{f: func(*Frame) float64 { return v.F }}, nil
		default:
			return cexpr{v: func(*Frame) ir.Value { return v }}, nil
		}
	case ir.Ident:
		return cc.ident(e.Name)
	case ir.Unary:
		x, err := cc.expr(e.X)
		if err != nil {
			return cexpr{}, err
		}
		return unary(e.Op, x), nil
	case ir.Binary:
		l, err := cc.expr(e.L)
		if err != nil {
			return cexpr{}, err
		}
		r, err := cc.expr(e.R)
		if err != nil {
			return cexpr{}, err
		}
		return binary(e, l, r), nil
	default:
		return cexpr{}, fmt.Errorf("codegen: machine %s: unknown expression %T", cc.m.Name, e)
	}
}

// ident resolves an identifier at compile time: event fields first (the
// checker rejects variables named after them, and the interpreter's
// stepScope consults the event bindings first, so resolution order
// matches), then variable slots, decoded per declared type as ir.Decode
// does.
func (cc *compiler) ident(name string) (cexpr, error) {
	switch name {
	case "task":
		return cexpr{v: func(fr *Frame) ir.Value { return ir.Str(fr.ev.Task) }}, nil
	case "t":
		return cexpr{i: func(fr *Frame) int64 { return int64(fr.ev.Time) }}, nil
	case "path":
		return cexpr{i: func(fr *Frame) int64 { return int64(fr.ev.Path) }}, nil
	case "data":
		return cexpr{f: func(fr *Frame) float64 { return fr.ev.Data }}, nil
	case "energy":
		return cexpr{f: func(fr *Frame) float64 { return fr.ev.Energy }}, nil
	}
	slot, ok := cc.slots[name]
	if !ok {
		return cexpr{}, fmt.Errorf("codegen: machine %s: undefined identifier %q", cc.m.Name, name)
	}
	switch cc.types[name] {
	case ir.TInt:
		return cexpr{i: func(fr *Frame) int64 { return int64(fr.slots.VarWord(slot)) }}, nil
	case ir.TFloat:
		return cexpr{f: func(fr *Frame) float64 { return math.Float64frombits(fr.slots.VarWord(slot)) }}, nil
	case ir.TBool:
		return cexpr{b: func(fr *Frame) bool { return fr.slots.VarWord(slot) != 0 }}, nil
	}
	return cexpr{}, fmt.Errorf("codegen: machine %s: variable %q has unsupported type", cc.m.Name, name)
}

func unary(op string, x cexpr) cexpr {
	switch {
	case op == "!" && x.b != nil:
		b := x.b
		return cexpr{b: func(fr *Frame) bool { return !b(fr) }}
	case op == "-" && x.i != nil:
		i := x.i
		return cexpr{i: func(fr *Frame) int64 { return -i(fr) }}
	case op == "-" && x.f != nil:
		f := x.f
		return cexpr{f: func(fr *Frame) float64 { return -f(fr) }}
	}
	xv := x.value()
	return cexpr{v: func(fr *Frame) ir.Value {
		v := xv(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		out, err := ir.ApplyUnary(op, v)
		if err != nil {
			fr.err = err
			return ir.Value{}
		}
		return out
	}}
}

func binary(e ir.Binary, l, r cexpr) cexpr {
	if typed, ok := typedBinary(e, l, r); ok {
		return typed
	}
	op, lv, rv := e.Op, l.value(), r.value()
	if op == "&&" || op == "||" {
		// Short-circuit logic mirrors ir's evalBinary: the left operand's
		// truthiness decides whether the right is evaluated at all.
		return cexpr{v: func(fr *Frame) ir.Value {
			x := lv(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			lb, err := x.Truthy()
			if err != nil {
				fr.err = err
				return ir.Value{}
			}
			if lb == (op == "||") {
				return ir.Bool(lb)
			}
			y := rv(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			rb, err := y.Truthy()
			if err != nil {
				fr.err = err
				return ir.Value{}
			}
			return ir.Bool(rb)
		}}
	}
	return cexpr{v: func(fr *Frame) ir.Value {
		x := lv(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		y := rv(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		out, err := ir.Apply(op, x, y)
		if err != nil {
			fr.err = err
			return ir.Value{}
		}
		return out
	}}
}

// typedBinary compiles e to a typed closure when both operands are typed
// and the operator cannot fail on their types; ok is false otherwise.
func typedBinary(e ir.Binary, l, r cexpr) (c cexpr, ok bool) {
	switch e.Op {
	case "&&", "||":
		if l.b == nil || r.b == nil {
			break
		}
		lb, rb := l.b, r.b
		if e.Op == "&&" {
			return cexpr{b: func(fr *Frame) bool { return lb(fr) && rb(fr) }}, true
		}
		return cexpr{b: func(fr *Frame) bool { return lb(fr) || rb(fr) }}, true
	case "==", "!=":
		if eq := typedEq(e, l, r); eq != nil {
			return cexpr{b: eq}, true
		}
	case "<", "<=", ">", ">=":
		lf, rf := l.float(), r.float()
		if lf == nil || rf == nil {
			break
		}
		switch e.Op {
		case "<":
			return cexpr{b: func(fr *Frame) bool { return lf(fr) < rf(fr) }}, true
		case "<=":
			return cexpr{b: func(fr *Frame) bool { return lf(fr) <= rf(fr) }}, true
		case ">":
			return cexpr{b: func(fr *Frame) bool { return lf(fr) > rf(fr) }}, true
		default:
			return cexpr{b: func(fr *Frame) bool { return lf(fr) >= rf(fr) }}, true
		}
	case "+", "-", "*":
		if li, ri := l.i, r.i; li != nil && ri != nil {
			switch e.Op {
			case "+":
				return cexpr{i: func(fr *Frame) int64 { return li(fr) + ri(fr) }}, true
			case "-":
				return cexpr{i: func(fr *Frame) int64 { return li(fr) - ri(fr) }}, true
			default:
				return cexpr{i: func(fr *Frame) int64 { return li(fr) * ri(fr) }}, true
			}
		}
		lf, rf := l.float(), r.float()
		if lf == nil || rf == nil {
			break
		}
		switch e.Op {
		case "+":
			return cexpr{f: func(fr *Frame) float64 { return lf(fr) + rf(fr) }}, true
		case "-":
			return cexpr{f: func(fr *Frame) float64 { return lf(fr) - rf(fr) }}, true
		default:
			return cexpr{f: func(fr *Frame) float64 { return lf(fr) * rf(fr) }}, true
		}
	}
	return cexpr{}, false
}

// typedEq compiles an (in)equality that cannot fail — task against a
// string literal (either operand order; the hottest guard shape of every
// spec), bool/bool, int/int (exact) or mixed numeric (widened) — or
// returns nil.
func typedEq(e ir.Binary, l, r cexpr) boolFn {
	neg := e.Op == "!="
	if lit, ok := taskLit(e); ok {
		return func(fr *Frame) bool { return (fr.ev.Task == lit) != neg }
	}
	lf, rf := l.float(), r.float()
	switch {
	case l.b != nil && r.b != nil:
		lb, rb := l.b, r.b
		return func(fr *Frame) bool { return (lb(fr) == rb(fr)) != neg }
	case l.i != nil && r.i != nil:
		li, ri := l.i, r.i
		return func(fr *Frame) bool { return (li(fr) == ri(fr)) != neg }
	case lf != nil && rf != nil:
		return func(fr *Frame) bool { return (lf(fr) == rf(fr)) != neg }
	}
	return nil
}

// taskLit recognizes `task <op> "lit"` and `"lit" <op> task`.
func taskLit(e ir.Binary) (string, bool) {
	if isTaskIdent(e.L) {
		return stringLit(e.R)
	}
	if isTaskIdent(e.R) {
		return stringLit(e.L)
	}
	return "", false
}

func isTaskIdent(e ir.Expr) bool {
	id, ok := e.(ir.Ident)
	return ok && id.Name == "task"
}

func stringLit(e ir.Expr) (string, bool) {
	lit, ok := e.(ir.Lit)
	if !ok || lit.V.T != ir.TString {
		return "", false
	}
	return lit.V.S, true
}
