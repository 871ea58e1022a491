package chaos

import (
	"os"
	"runtime"
	"testing"

	"github.com/tinysystems/artemis-go/internal/correctness"
	"github.com/tinysystems/artemis-go/internal/parallel"
)

// TestFormalExplorerSampled crashes the health benchmark at sampled NVM
// writes with the two formally-derived oracles armed: every recovered run
// must satisfy re-execution isolation, commit only store images a
// continuous execution reaches, and re-collect interrupted sensor inputs
// — on top of the standard four oracles.
func TestFormalExplorerSampled(t *testing.T) {
	ex, err := NewHealthFormalExplorer(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ex.Workers = 4
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != 60 {
		t.Fatalf("explored %d points, want 60", rep.Explored)
	}
	if rep.Failed != 0 {
		t.Fatalf("formal exploration failed:\n%s", rep)
	}
	for _, oracle := range []string{correctness.OracleMemory, correctness.OracleInputs} {
		if rep.OraclePass[oracle] != rep.Explored {
			t.Fatalf("oracle %s passed %d of %d:\n%s", oracle, rep.OraclePass[oracle], rep.Explored, rep)
		}
	}
}

// TestFormalExplorerExhaustiveDeep sweeps EVERY persistent write of the
// health run with the formal oracles armed — the weekly CI deep-chaos
// configuration; set ARTEMIS_DEEP_CHAOS=1 to run it locally.
func TestFormalExplorerExhaustiveDeep(t *testing.T) {
	if os.Getenv("ARTEMIS_DEEP_CHAOS") == "" {
		t.Skip("exhaustive formal sweep runs in the weekly CI job; set ARTEMIS_DEEP_CHAOS=1 to run")
	}
	ex, err := NewHealthFormalExplorer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex.Workers = parallel.DefaultWorkers()
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Explored+rep.Pruned != rep.Writes {
		t.Fatalf("sweep not exhaustive: %d explored + %d pruned of %d writes",
			rep.Explored, rep.Pruned, rep.Writes)
	}
	if rep.Failed != 0 {
		t.Fatalf("exhaustive formal exploration failed:\n%s", rep)
	}
}

// TestGoldenRunWARClean pins the acceptance property that building the
// formal explorer itself verifies the shipped workload hazard-free: the
// constructor refuses to produce an explorer when the golden continuous
// run exhibits a write-after-read hazard.
func TestGoldenRunWARClean(t *testing.T) {
	set, err := goldenHealthImages()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 2 {
		t.Fatalf("golden run reached only %d distinct committed images", set.Len())
	}
}

// TestFormalExplorerReuseDoesNotLeak runs one formal explorer repeatedly:
// the per-build tracker state of every framework it built — the reference
// run's included — must be dropped with the framework, so the live heap
// does not grow with the number of runs.
func TestFormalExplorerReuseDoesNotLeak(t *testing.T) {
	ex, err := NewHealthFormalExplorer(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(2) // warm pools and shared compiled state
	before := liveHeap()
	run(8)
	after := liveHeap()
	runtime.KeepAlive(ex)
	// A leaked reference run keeps about 90 KB alive per Run.
	if after > before+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes over 8 runs of one explorer", before, after)
	}
}
