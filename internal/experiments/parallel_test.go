package experiments

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/parallel"
)

// shuffleDispatch reverses the executor's dispatch order for the duration
// of fn — an adversarial schedule that hands items to workers backwards.
// Output must still match serial execution byte for byte.
func shuffleDispatch(t *testing.T, fn func()) {
	t.Helper()
	parallel.SetDispatchOrderForTesting(func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	})
	defer parallel.SetDispatchOrderForTesting(nil)
	fn()
}

// parallelOptions is fastOptions with an explicit worker count — not
// DefaultWorkers(), which is 1 on a single-core runner and would silently
// take the sequential path.
func parallelOptions() Options {
	o := fastOptions()
	o.Workers = 4
	return o
}

func TestFigure12ParallelDeterminism(t *testing.T) {
	serialRows, err := Figure12(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := TableFigure12(serialRows).Render()

	check := func(label string) {
		t.Helper()
		rows, err := Figure12(parallelOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := TableFigure12(rows).Render(); got != serial {
			t.Errorf("%s: parallel Figure 12 diverges from serial\nserial:\n%s\nparallel:\n%s", label, serial, got)
		}
	}
	check("workers=4")
	shuffleDispatch(t, func() { check("workers=4 shuffled") })
}

func TestFigure16ParallelDeterminism(t *testing.T) {
	serialRows, err := Figure16(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := TableFigure16(serialRows).Render()

	rows, err := Figure16(parallelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := TableFigure16(rows).Render(); got != serial {
		t.Errorf("parallel Figure 16 diverges from serial\nserial:\n%s\nparallel:\n%s", serial, got)
	}
}

func TestTable2ParallelDeterminism(t *testing.T) {
	serialRows, err := Table2(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := TableTable2(serialRows).Render()

	shuffleDispatch(t, func() {
		rows, err := Table2(parallelOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := TableTable2(rows).Render(); got != serial {
			t.Errorf("parallel Table 2 diverges from serial\nserial:\n%s\nparallel:\n%s", serial, got)
		}
	})
}

func TestRecoveryParallelDeterminism(t *testing.T) {
	serialRes, err := Recovery(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := RenderRecovery(serialRes)

	res, err := Recovery(parallelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderRecovery(res); got != serial {
		t.Errorf("parallel Recovery diverges from serial\nserial:\n%s\nparallel:\n%s", serial, got)
	}
}
