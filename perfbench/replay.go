package main

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// replayRounds is how many times the replay steps each case of the mix.
// The count is fixed, not timed, so the simulated counts it reports repeat
// exactly from run to run.
const replayRounds = 100

// replay steps a device mix serially, the way a fleet shard does
// (Case.Config, core.New on a shared compiled program and a pooled image,
// Run, InjectEvent, Memory.Hash, Release), with a span around each call.
// The fleet engine has no public hook inside a device step, so this is
// where the core and nvm layers are timed. Simulated counts cover
// core.New and Run, not the injected events, so they do not depend on the
// seed.
func replay(cases []examplespecs.Case, eventsPerStep int, seed uint64, res *result) error {
	rec := newRecorder()
	specs, err := probeSpecs(cases)
	if err != nil {
		return err
	}
	compiled := map[string]*transform.Result{}
	for _, c := range cases {
		cfg, err := c.Config()
		if err != nil {
			return err
		}
		if cfg.System != core.Artemis || cfg.SpecSource == "" || cfg.Graph == nil {
			continue
		}
		s, err := spec.Parse(cfg.SpecSource)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		if compiled[c.Name], err = transform.Compile(s, transform.Options{Graph: cfg.Graph, DataVars: cfg.StoreKeys}); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	pool := nvm.NewPool(fleet.DefaultMemBytes)
	r := newRNG(seed ^ 0x7265706c6179)
	var writes, bytesW, reboots, steps int64
	var energyUJ, simMS, runNS float64
	runs := map[string][]float64{}
	for round := 0; round < replayRounds; round++ {
		for i, c := range cases {
			op := uint64(round*len(cases) + i)
			dev := rec.begin("replay.device", -1, op)
			sp := rec.begin("examplespecs.config", dev, op)
			cfg, err := c.Config()
			rec.end(sp)
			if err != nil {
				return err
			}
			if p := compiled[c.Name]; p != nil {
				cfg.Compiled, cfg.SpecSource = p, ""
			}
			mem := pool.Get()
			cfg.Mem = mem
			before := mem.Stats()
			sp = rec.begin("core.new", dev, op)
			f, err := core.New(cfg)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			sp = rec.begin("core.run", dev, op)
			rep, err := f.Run()
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			after := mem.Stats()
			s := rec.spans[sp]
			runNS += float64(s.End - s.Start)
			runs[c.Name] = append(runs[c.Name], float64(s.End-s.Start)/1e3)
			writes += after.Writes - before.Writes
			bytesW += after.BytesWritten - before.BytesWritten
			reboots += int64(rep.Reboots)
			energyUJ += float64(rep.Energy) * 1e6
			simMS += float64(rep.Elapsed) / 1000 // simclock counts microseconds
			steps++
			if specs[i].injectable {
				d := fleetDevice{id: c.Name, spec: &specs[i]}
				for k := 0; k < eventsPerStep; k++ {
					ev := r.event(d)
					kind := ir.EvStart
					if ev.Kind == "end" {
						kind = ir.EvEnd
					}
					sp = rec.begin("core.inject", dev, op)
					_, _, err := f.InjectEvent(kind, ev.Task, ev.Data)
					rec.end(sp)
					if err != nil {
						return fmt.Errorf("%s: inject: %w", c.Name, err)
					}
				}
			}
			sp = rec.begin("nvm.hash", dev, op)
			_ = mem.Hash() // timed for its cost; the value is the fleet digest's input
			rec.end(sp)
			sp = rec.begin("core.release", dev, op)
			f.Release()
			pool.Put(mem)
			rec.end(sp)
			rec.end(dev)
		}
	}
	n := float64(steps)
	res.layer["examplespecs.config_us"] = medianOf(rec.durations("examplespecs.config"))
	res.layer["core.new_us"] = medianOf(rec.durations("core.new"))
	res.layer["core.run_us"] = medianOf(rec.durations("core.run"))
	for name, xs := range runs {
		res.layer["core.run_us."+name] = medianOf(xs)
	}
	res.layer["core.inject_us"] = medianOf(rec.durations("core.inject"))
	res.layer["nvm.hash_us"] = medianOf(rec.durations("nvm.hash"))
	res.layer["nvm.writes_per_device_step"] = float64(writes) / n
	res.layer["nvm.bytes_written_per_device_step"] = float64(bytesW) / n
	res.layer["device.reboots_per_device_step"] = float64(reboots) / n
	res.layer["energy.uj_per_device_step"] = energyUJ / n
	res.layer["simclock.sim_ms_per_device_step"] = simMS / n
	if writes > 0 {
		res.layer["core.run_ns_per_nvm_write"] = runNS / float64(writes)
	}
	self := layerSelf(rec.spans)
	res.note("replay: %d device steps over %d cases; self time per layer (ms): examplespecs %.1f core %.1f nvm %.1f replay %.1f",
		steps, len(cases), float64(self["examplespecs"])/1e6, float64(self["core"])/1e6,
		float64(self["nvm"])/1e6, float64(self["replay"])/1e6)
	return nil
}
