// Package mayflyspec is a second property-specification frontend,
// demonstrating the paper's §7 "Support for Other Languages" claim: by
// mapping another language's constructs onto the ARTEMIS property model,
// existing specifications gain the intermediate language, the generated
// monitors, and the runtime's corrective actions for free.
//
// The language mirrors Mayfly's edge-annotated temporal data model (Hester
// et al., SenSys'17): constraints attach to producer→consumer edges rather
// than to tasks.
//
//	// data on this edge expires after five minutes
//	accel -> send [path 2]: expires 5min;
//	// the consumer needs ten items from the producer
//	bodyTemp -> calcAvg: collect 10;
//
// Translation: "expires D" becomes an ARTEMIS MITD property on the consumer
// with onFail: restartPath — exactly Mayfly's restart-the-task-graph
// response — and "collect N" becomes a collect property, likewise with
// restartPath. Because the output is an ordinary spec.Spec, the translated
// constraints flow through the standard transform → monitor pipeline and
// may be freely combined with native ARTEMIS properties (e.g. adding
// maxAttempt bounds that Mayfly's own runtime cannot express).
package mayflyspec

import (
	"fmt"
	"strings"

	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/spec"
)

// Constraint is one parsed Mayfly-style edge constraint.
type Constraint struct {
	Producer string
	Consumer string
	Path     int // 0 = unscoped
	// Exactly one of the two is set.
	Expires simclock.Duration
	Collect int64
	Line    int
}

// Parse reads a Mayfly-style specification: one constraint per line,
// `producer -> consumer [path N]: expires D;` or `...: collect N;`.
// Lines starting with // or # are comments.
func Parse(src string) ([]Constraint, error) {
	var out []Constraint
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := parseLine(line, lineNo+1)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mayflyspec: no constraints in input")
	}
	return out, nil
}

func parseLine(line string, lineNo int) (Constraint, error) {
	fail := func(format string, args ...any) (Constraint, error) {
		return Constraint{}, fmt.Errorf("mayflyspec:%d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	if !strings.HasSuffix(line, ";") {
		return fail("missing trailing ';'")
	}
	line = strings.TrimSuffix(line, ";")

	head, body, ok := strings.Cut(line, ":")
	if !ok {
		return fail("missing ':' between edge and constraint")
	}
	prod, cons, ok := strings.Cut(head, "->")
	if !ok {
		return fail("missing '->' in edge")
	}
	c := Constraint{Producer: strings.TrimSpace(prod), Line: lineNo}

	consPart := strings.TrimSpace(cons)
	if i := strings.Index(consPart, "["); i >= 0 {
		bracket := consPart[i:]
		consPart = strings.TrimSpace(consPart[:i])
		if !strings.HasPrefix(bracket, "[path ") || !strings.HasSuffix(bracket, "]") {
			return fail("bad path qualifier %q (want [path N])", bracket)
		}
		var n int
		if _, err := fmt.Sscanf(bracket, "[path %d]", &n); err != nil || n <= 0 {
			return fail("bad path number in %q", bracket)
		}
		c.Path = n
	}
	c.Consumer = consPart
	if c.Producer == "" || c.Consumer == "" {
		return fail("edge needs both a producer and a consumer")
	}

	fields := strings.Fields(strings.TrimSpace(body))
	if len(fields) != 2 {
		return fail("constraint must be 'expires <duration>' or 'collect <count>'")
	}
	switch fields[0] {
	case "expires":
		d, err := simclock.ParseDuration(fields[1])
		if err != nil {
			return fail("%v", err)
		}
		if d <= 0 {
			return fail("expiration must be positive")
		}
		c.Expires = d
	case "collect":
		var n int64
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n <= 0 {
			return fail("bad collect count %q", fields[1])
		}
		c.Collect = n
	default:
		return fail("unknown constraint %q (want expires or collect)", fields[0])
	}
	return c, nil
}

// toSpec lowers the constraints into the ARTEMIS property model. The
// response to every violation is Mayfly's: restart the path.
func toSpec(cs []Constraint) *spec.Spec {
	// Group by consumer task, preserving first-seen order.
	order := []string{}
	byConsumer := map[string][]spec.Property{}
	for _, c := range cs {
		p := spec.Property{
			DpTask: c.Producer,
			OnFail: spec.ActionRestartPath,
			Path:   c.Path,
			Pos:    spec.Position{Line: c.Line, Col: 1},
		}
		switch {
		case c.Expires > 0:
			p.Kind = spec.KindMITD
			p.Duration = c.Expires
		default:
			p.Kind = spec.KindCollect
			p.Count = c.Collect
		}
		if _, seen := byConsumer[c.Consumer]; !seen {
			order = append(order, c.Consumer)
		}
		byConsumer[c.Consumer] = append(byConsumer[c.Consumer], p)
	}
	s := &spec.Spec{}
	for _, consumer := range order {
		s.Blocks = append(s.Blocks, spec.TaskBlock{
			Task:  consumer,
			Props: byConsumer[consumer],
		})
	}
	return s
}

// Compile is the end-to-end frontend: Mayfly-style source to an ARTEMIS
// specification, validated against nothing (callers validate/transform with
// their graph as usual).
func Compile(src string) (*spec.Spec, error) {
	cs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return toSpec(cs), nil
}

// HealthSource is the Mayfly version of the benchmark (§5.1.1) in this
// frontend's syntax: only the collect and MITD constraints of Figure 5.
const HealthSource = `
// Mayfly version of the wearable health monitor (§5.1.1)
accel -> send [path 2]: expires 5min;
accel -> send [path 2]: collect 1;
micSense -> send [path 3]: collect 1;
bodyTemp -> calcAvg: collect 10;
`
