// External test package: exercising Generate against the real health spec
// pulls in internal/health -> internal/transform, which itself imports
// codegen (for Result.Stepper), so these tests must live outside the package
// to avoid an import cycle.
package codegen_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"testing"

	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
)

func healthProgram(t *testing.T) *ir.Program {
	t.Helper()
	res, err := health.New().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

func TestGenerateParsesAsGo(t *testing.T) {
	src, err := codegen.Generate(healthProgram(t), "monitors")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "monitors.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	if !bytes.Contains(src, []byte("package monitors")) {
		t.Fatal("wrong package clause")
	}
	if !bytes.Contains(src, []byte("DO NOT EDIT")) {
		t.Fatal("missing generated-code marker")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := codegen.Generate(healthProgram(t), "m")
	if err != nil {
		t.Fatal(err)
	}
	b, err := codegen.Generate(healthProgram(t), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("generation is not deterministic")
	}
}

func TestMachineNamesSorted(t *testing.T) {
	names := codegen.MachineNames(healthProgram(t))
	if len(names) != 8 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("not sorted: %v", names)
		}
	}
}

// TestCompileProgramHealth: the closure compiler must cover every machine of
// the flagship spec, the program every deployment of it runs.
func TestCompileProgramHealth(t *testing.T) {
	prog := healthProgram(t)
	p, err := codegen.CompileProgram(prog)
	if err != nil {
		t.Fatalf("health program not compilable: %v", err)
	}
	for i, m := range prog.Machines {
		if cm := p.Machine(i); cm == nil || cm.Name() != m.Name {
			t.Errorf("machine %d (%s) did not compile in place", i, m.Name)
		}
	}
}
