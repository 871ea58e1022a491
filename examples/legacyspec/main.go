// Legacyspec demonstrates §7 "Support for Other Languages": a legacy
// Mayfly-style specification (edge-annotated temporal constraints) is
// compiled by the mayflyspec frontend into the ARTEMIS property model and
// runs on the ARTEMIS runtime unchanged.
//
// It then shows why the common intermediate representation matters: the
// legacy constraints alone inherit Mayfly's restart-forever semantics and
// livelock under a long charging delay, but because they are now ordinary
// ARTEMIS properties, one native property — a maxAttempt bound — can be
// mixed in without touching the legacy source, and the application
// completes.
//
//	go run ./examples/legacyspec
package main

import (
	"fmt"
	"log"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/mayflyspec"
	"github.com/tinysystems/artemis-go/internal/trace"
)

func main() {
	// 1. The legacy source, in Mayfly's edge-constraint style.
	fmt.Println("legacy Mayfly-style specification:")
	fmt.Print(mayflyspec.HealthSource)

	legacy, err := mayflyspec.Compile(mayflyspec.HealthSource)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntranslated to the ARTEMIS property model:")
	fmt.Println(legacy.String())

	// 2. Run the translation as-is: Mayfly semantics, Mayfly fate — the
	//    restart-forever loop under a 6-minute charging delay. The shared
	//    deployment is reused with only its specification swapped.
	cfg, err := examplespecs.LegacySpecConfig()
	if err != nil {
		log.Fatal(err)
	}
	cfg.SpecSource = legacy.String()
	fmt.Printf("--- legacy constraints only (%v charging) ---\n", cfg.Supply.Delay)
	rep, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rep.NonTerminated {
		fmt.Printf("  NON-TERMINATION after %d reboots, %s elapsed — as Mayfly behaves\n",
			rep.Reboots, trace.FormatDuration(rep.Elapsed))
	} else {
		fmt.Printf("  completed in %s (unexpected for this scenario)\n", trace.FormatDuration(rep.Elapsed))
	}

	// 3. Mix in ONE native ARTEMIS property — the attempt bound Mayfly's
	//    language cannot express — without touching the legacy source.
	if cfg, err = examplespecs.LegacySpecConfig(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- legacy constraints + native maxAttempt bound ---\n")
	rep, err = run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  completed=%v nonTerminated=%v in %s across %d reboots\n",
		rep.Completed, rep.NonTerminated, trace.FormatDuration(rep.Elapsed), rep.Reboots)
	if rep.ArtemisStats != nil {
		fmt.Printf("  decisions: %d path restarts, %d path skips\n",
			rep.ArtemisStats.PathRestarts, rep.ArtemisStats.PathSkips)
	}
}

func run(cfg core.Config) (*core.Report, error) {
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
