// Quickstart: the smallest complete ARTEMIS program.
//
// A two-task application (sample → report) runs on a simulated batteryless
// device that browns out every 700 µJ and recharges for 30 seconds. One
// property guards it: sample may be attempted at most five times in a row
// before its path is skipped. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

func main() {
	// 1. Decompose the application into atomic tasks with a path (built
	//    by examplespecs.QuickstartConfig). Task outputs go to the
	//    persistent store and are committed atomically at task boundaries —
	//    a power failure mid-task rolls them back.
	// 2. State the properties declaratively, separate from the code
	//    (examplespecs.QuickstartSpec).
	// 3. Assemble the deployment: ARTEMIS compiles the specification into
	//    monitor state machines and wires them to the intermittent runtime.
	//    The shared definitions in internal/examplespecs are also what the
	//    engine-equivalence harness runs through both monitor engines.
	cfg, err := examplespecs.QuickstartConfig()
	if err != nil {
		log.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run to completion across however many power failures it takes.
	rep, err := f.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed:   %v (%d power failures)\n", rep.Completed, rep.Reboots)
	fmt.Printf("elapsed:     %.1f s of wall time, %.1f ms active\n",
		rep.Elapsed.Seconds(), rep.Active.Milliseconds())
	fmt.Printf("energy:      %.0f µJ\n", float64(rep.Energy)*1e6)
	fmt.Printf("samples:     %.0f, reports: %.0f\n",
		f.Store().Get("samples"), f.Store().Get("reports"))
	if st := rep.ArtemisStats; st != nil {
		fmt.Printf("monitoring:  %d events checked, %d task skips, %d path skips\n",
			st.Events, st.TaskSkips, st.PathSkips)
	}
}
