package chaos

import (
	"fmt"
	"sync"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/correctness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// This file derives the seventh and eighth oracles from the formal
// memory-consistency definitions (internal/correctness): instead of
// invariants we wrote, the sweep checks the conditions under which a formal
// model says an intermittent execution equals SOME continuously-powered one
// — re-execution isolation ("memory", with committed-state reachability
// against a golden continuous run) and input re-collection ("inputs").

// formalState is the per-framework instrumentation a formal build carries:
// the read/write-set tracker and every committed store image the run made
// durable (captured at each commit-group flip and after each reboot).
type formalState struct {
	tracker *correctness.Tracker
	images  [][]byte
}

// buildFormalHealth assembles a health deployment whose task graph is
// instrumented for read/write-set tracking, with committed-store images
// captured at every commit flip and reboot. Telemetry stays off: the
// observer and the uncharged PeekCommitted reads leave the energy model
// and write counts untouched, so crash schedules match the plain build.
func buildFormalHealth() (*core.Framework, *formalState, error) {
	app := health.New()
	res, err := health.CompiledShared()
	if err != nil {
		return nil, nil, err
	}
	st := &formalState{}
	f, err := core.New(core.Config{
		System:    core.Artemis,
		StoreKeys: health.Keys(),
		Compiled:  res,
		Supply:    core.SupplyConfig{Kind: core.SupplyContinuous},
		BuildApp: func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			st.tracker = correctness.NewTracker(mem)
			g, err := st.tracker.InstrumentGraph(app.Graph)
			return g, nil, err
		},
	})
	if err != nil {
		return nil, nil, err
	}
	size := len(health.Keys()) * 8
	capture := func() {
		img := make([]byte, size)
		f.Store().Backing().PeekCommitted(img)
		st.images = append(st.images, img)
	}
	// The store commits through the runtime's shared group, so every task
	// boundary (and every monitor/event commit riding the same selector)
	// lands one image. The reboot hook catches the one state a crash
	// mid-commit can expose that no flip observer fires for.
	f.Store().Backing().Group().SetObserver(capture)
	f.OnReboot(func(int, simclock.Duration) {
		st.tracker.Reboot()
		capture()
	})
	return f, st, nil
}

// healthImageMask projects out the store slots whose committed value
// legitimately depends on wall-clock timing: sentCount, because the spec's
// maxDuration guard may skip a send in some continuous executions.
func healthImageMask() []int {
	var mask []int
	for i, k := range health.Keys() {
		if k == "sentCount" {
			mask = append(mask, i*8)
		}
	}
	return mask
}

// goldenHealthImages runs one continuously-powered instrumented deployment
// to completion and collects every committed store image it reached — the
// reachability set the formal "memory" oracle compares crashed runs
// against. It also proves the shipped workload WAR-clean: a hazard here
// means the golden run itself read-then-wrote raw state.
func goldenHealthImages() (*correctness.ImageSet, error) {
	f, st, err := buildFormalHealth()
	if err != nil {
		return nil, err
	}
	rep, err := f.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: golden continuous run failed: %w", err)
	}
	if !rep.Completed || rep.NonTerminated {
		return nil, fmt.Errorf("chaos: golden continuous run did not complete: %+v", rep.RunResult)
	}
	if hz := st.tracker.Hazards(); len(hz) != 0 {
		return nil, fmt.Errorf("chaos: golden run found WAR hazards in the shipped workload:\n%s",
			correctness.FormatHazards(hz))
	}
	size := len(health.Keys()) * 8
	set := correctness.NewImageSet(size, healthImageMask())
	for _, img := range st.images {
		set.Add(img)
	}
	final := make([]byte, size)
	f.Store().Backing().PeekCommitted(final)
	set.Add(final)
	return set, nil
}

// NewHealthFormalExplorer builds the exhaustive crash explorer with the
// two formally-derived oracles on top of the standard four:
//
//   - "memory": no re-executed task observes a value its own interrupted
//     attempt wrote (re-execution isolation), and every committed store
//     image the crashed run made durable — including the post-reboot state
//     and the final state — is one the golden continuous run reached
//     (committed-state reachability, with timing-dependent slots projected
//     out).
//   - "inputs": the re-execution of a crash-interrupted task re-collects
//     the sensor inputs the interrupted attempt had consumed, rather than
//     replaying persisted samples.
//
// Budget > 0 samples that many crash points; 0 sweeps every NVM write.
func NewHealthFormalExplorer(seed int64, budget int) (*Explorer, error) {
	golden, err := goldenHealthImages()
	if err != nil {
		return nil, err
	}
	size := len(health.Keys()) * 8
	var states sync.Map // *core.Framework -> *formalState
	return &Explorer{
		Build: func() (*core.Framework, error) {
			f, st, err := buildFormalHealth()
			if err != nil {
				return nil, err
			}
			states.Store(f, st)
			return f, nil
		},
		Keys:        healthKeys,
		ExactKeys:   healthExactKeys,
		Invariant:   healthInvariant,
		Seed:        seed,
		Budget:      budget,
		PostOracles: []string{correctness.OracleMemory, correctness.OracleInputs},
		PostCheck: func(f *core.Framework, ref, got Outcome) []OracleFailure {
			v, ok := states.Load(f)
			if !ok {
				return []OracleFailure{{correctness.OracleMemory, "no tracker attached to the recovered framework"}}
			}
			st := v.(*formalState)
			var fails []OracleFailure
			for _, viol := range st.tracker.ReExecutionViolations() {
				fails = append(fails, OracleFailure{viol.Oracle, viol.Detail})
			}
			final := make([]byte, size)
			f.Store().Backing().PeekCommitted(final)
			for _, img := range append(st.images, final) {
				if !golden.Contains(img) {
					fails = append(fails, OracleFailure{correctness.OracleMemory,
						fmt.Sprintf("committed store image unreachable by any continuous execution (%x)", img)})
					break
				}
			}
			for _, viol := range st.tracker.InputViolations() {
				fails = append(fails, OracleFailure{viol.Oracle, viol.Detail})
			}
			return fails
		},
		Discard: func(f *core.Framework) { states.Delete(f) },
	}, nil
}
