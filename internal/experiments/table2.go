package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/tinysystems/artemis-go/internal/artemis"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// Table2Row reports one component's memory requirements, the Table-2
// columns translated to this reproduction's measurable quantities:
//
//   - Text is the code-size proxy: bytes of the component's Go source (for
//     the generated monitors, the bytes artemisgen emits for the benchmark).
//   - RAM is the volatile working set: the SRAM staging buffers of the
//     component's committed regions.
//   - FRAM is the measured persistent allocation from the NVM accountant.
type Table2Row struct {
	Component string
	Text      int
	RAM       int
	FRAM      int
}

// Table2 measures the memory requirements of the Mayfly runtime, the
// ARTEMIS runtime, and the generated ARTEMIS monitors for the benchmark
// application. The paper's structural claims: the decoupled ARTEMIS runtime
// needs less FRAM than Mayfly's (the property bookkeeping moved out), and
// the application-specific monitors carry the bulk of the persistent state.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()

	type t2run struct {
		name string
		sys  core.System
		hook func(*core.Config)
	}
	runs := []t2run{
		{"ARTEMIS", core.Artemis, nil},
		{"Mayfly", core.Mayfly, nil},
		{"Ocelot", core.Ocelot, nil},
		{"integrity", core.Artemis, func(cfg *core.Config) { cfg.Integrity = true }},
	}
	reps, err := sweep(o, runs, func(_ int, r t2run) (*core.Report, error) {
		rep, _, err := runHealth(r.sys, continuous(), o, r.hook)
		if err != nil {
			return nil, fmt.Errorf("table 2 (%s): %w", r.name, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	artRep, mayRep, oceRep, intRep := reps[0], reps[1], reps[2], reps[3]

	res, err := health.CompiledShared()
	if err != nil {
		return nil, err
	}
	monSrc, err := codegen.Generate(res.Program, "monitors")
	if err != nil {
		return nil, err
	}

	rows := []Table2Row{
		{
			Component: "Mayfly runtime",
			Text:      sourceBytes("mayfly/mayfly.go"),
			RAM:       stagingBytes(mayRep, "mayfly"),
			FRAM:      mayRep.Footprints["mayfly"],
		},
		{
			// The Ocelot-style freshness enforcer is the leanest of the
			// three: Mayfly's control layout plus one timestamp slot per
			// bounded producer, no per-task/per-edge metadata, no monitors.
			Component: "Ocelot freshness runtime",
			Text:      sourceBytes("freshness/freshness.go"),
			RAM:       stagingBytes(oceRep, "ocelot"),
			FRAM:      oceRep.Footprints["ocelot"],
		},
		{
			Component: "ARTEMIS runtime",
			Text:      sourceBytes("artemis/runtime.go"),
			RAM:       stagingBytes(artRep, "runtime"),
			FRAM:      artRep.Footprints["runtime"],
		},
		{
			Component: "ARTEMIS monitor (generated)",
			Text:      len(monSrc),
			RAM:       stagingBytes(artRep, "monitor"),
			FRAM:      artRep.Footprints["monitor"],
		},
		{
			// The optional self-healing layer (off by default): one
			// double-buffered 8-byte CRC per guarded region, plus two
			// watchdog words already counted in the runtime's control
			// region above.
			Component: "ARTEMIS integrity guards (optional)",
			Text:      sourceBytes("integrity/integrity.go"),
			RAM:       guardCount(intRep) * 8,
			FRAM:      intRep.Footprints["integrity"],
		},
	}
	return rows, nil
}

// guardCount reports how many regions the integrity layer guarded; each
// guard keeps one 8-byte CRC staging buffer in SRAM.
func guardCount(rep *core.Report) int {
	if rep.Integrity == nil {
		return 0
	}
	return rep.Integrity.Guards
}

// stagingBytes estimates a component's volatile working set: each committed
// region keeps one payload-sized staging buffer in SRAM, which the NVM
// accountant exposes as the ".a" buffer of the double-buffered pair.
func stagingBytes(rep *core.Report, owner string) int {
	// Footprints do not carry allocation names, so recompute from the
	// convention: a committed region of payload n allocates n (.a) + n (.b)
	// + 1 (.sel) bytes; plain Vars allocate 8 bytes with no staging. The
	// report exposes only totals, so the harness re-derives staging from
	// the structural constants of each component:
	switch owner {
	case "monitor":
		// One committed region per machine; payload = (11 + vars) words.
		// Derivable exactly: total = 2·stage + 1 per machine.
		return (rep.Footprints[owner] - machineCount(rep)) / 2
	case "runtime":
		// One committed control region + initDone; derive from the runtime's
		// layout constant so watchdog words stay counted.
		return artemis.ControlWords * 8
	case "mayfly":
		// One committed control region (4 words = 32 B staged); endTime and
		// collected slots are plain Vars with no staging.
		return 32
	case "ocelot":
		// The Mayfly-shaped control region (32 B staged) plus the stamps
		// region: one 8-byte timestamp slot for the benchmark's single
		// bounded producer (accel).
		return 32 + 8
	default:
		return 0
	}
}

func machineCount(rep *core.Report) int {
	if rep.System == core.Artemis {
		return 8 // the benchmark's eight properties
	}
	return 0
}

// sourceBytes reads the size of a component's Go source file as the .text
// proxy. The path is relative to the internal/ directory of this
// repository; the experiments run in-repo, so the file is reachable from
// this source file's location.
func sourceBytes(rel string) int {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return 0
	}
	p := filepath.Join(filepath.Dir(self), "..", rel)
	info, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return int(info.Size())
}

// TableTable2 builds the memory-requirements table.
func TableTable2(rows []Table2Row) *trace.Table {
	t := trace.NewTable(
		"Table 2 — memory requirements (bytes; .text is a source-size proxy)",
		"component", ".text", "RAM", "FRAM")
	for _, r := range rows {
		t.AddRow(r.Component,
			fmt.Sprintf("%d", r.Text),
			fmt.Sprintf("%d", r.RAM),
			fmt.Sprintf("%d", r.FRAM))
	}
	return t
}
