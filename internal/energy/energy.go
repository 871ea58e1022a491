// Package energy models the power supply of a batteryless device: a small
// capacitor charged by an ambient-energy harvester and discharged by the MCU
// and its peripherals.
//
// The paper's testbed harvests RF energy (Powercast TX91501-3W transmitter,
// P2110 receiver) into a capacitor that powers an MSP430FR5994. The device
// turns on when the capacitor reaches the turn-on threshold, computes while
// draining it, browns out at the turn-off threshold, and then waits for the
// capacitor to recharge — the "charging time" swept from 1 to 10 minutes in
// Figure 12 and Figure 16.
//
// Two supply models are provided:
//
//   - Capacitor + Harvester: physical model. Usable energy follows
//     E = ½·C·(V² − Voff²); charging at constant harvested power P gives
//     V(t) = sqrt(V0² + 2·P·t/C).
//   - FixedDelaySupply: the evaluation's abstraction. The capacitor holds a
//     fixed usable-energy budget per boot and every recharge takes a
//     configured delay, exactly the independent variable of Fig. 12/16.
package energy

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

// Joules is an amount of energy.
type Joules float64

// Watts is power: joules per second.
type Watts float64

// Microjoules is a convenience constructor for small energy quantities.
func Microjoules(uj float64) Joules { return Joules(uj * 1e-6) }

// Millijoules is a convenience constructor.
func Millijoules(mj float64) Joules { return Joules(mj * 1e-3) }

// Energy over a duration at constant power.
func (w Watts) Over(d simclock.Duration) Joules {
	return Joules(float64(w) * d.Seconds())
}

// Capacitor models the energy-storage capacitor of a batteryless node.
type Capacitor struct {
	Capacitance float64 // farads
	VMax        float64 // volts: harvester regulation ceiling
	VOn         float64 // volts: turn-on (operate) threshold
	VOff        float64 // volts: brown-out threshold

	v float64 // current voltage
}

// NewCapacitor returns a capacitor charged to the turn-on threshold, i.e.
// ready for the first boot.
func NewCapacitor(capacitance, vMax, vOn, vOff float64) (*Capacitor, error) {
	switch {
	case capacitance <= 0:
		return nil, fmt.Errorf("energy: capacitance must be positive, got %g", capacitance)
	case !(vMax >= vOn && vOn > vOff && vOff >= 0):
		return nil, fmt.Errorf("energy: need VMax >= VOn > VOff >= 0, got %g/%g/%g", vMax, vOn, vOff)
	}
	return &Capacitor{Capacitance: capacitance, VMax: vMax, VOn: vOn, VOff: vOff, v: vOn}, nil
}

// Voltage returns the current capacitor voltage.
func (c *Capacitor) Voltage() float64 { return c.v }

// Usable returns the energy available above the brown-out threshold.
func (c *Capacitor) Usable() Joules {
	if c.v <= c.VOff {
		return 0
	}
	return Joules(0.5 * c.Capacitance * (c.v*c.v - c.VOff*c.VOff))
}

// BootBudget returns the usable energy available right after turn-on at VOn.
func (c *Capacitor) BootBudget() Joules {
	return Joules(0.5 * c.Capacitance * (c.VOn*c.VOn - c.VOff*c.VOff))
}

// Drain removes e from the capacitor. It browns out exactly when Usable()
// <= e: the voltage is clamped to VOff (the excess demand is what caused the
// power failure) and Drain reports false. Deciding on Usable itself, not on
// the stored energy left after e, keeps the two in agreement where rounding
// puts them a few ulps apart.
func (c *Capacitor) Drain(e Joules) bool {
	if e < 0 {
		panic(fmt.Sprintf("energy: negative drain %g", e))
	}
	if c.Usable() <= e {
		c.v = c.VOff
		return false
	}
	c.v = math.Sqrt(2 * (0.5*c.Capacitance*c.v*c.v - float64(e)) / c.Capacitance)
	return true
}

// Charge adds energy harvested at constant power p for duration d, clamped
// at VMax.
func (c *Capacitor) Charge(p Watts, d simclock.Duration) {
	if p < 0 {
		panic(fmt.Sprintf("energy: negative charge power %g", p))
	}
	e := 0.5*c.Capacitance*c.v*c.v + float64(p)*d.Seconds()
	c.v = math.Sqrt(2 * e / c.Capacitance)
	if c.v > c.VMax {
		c.v = c.VMax
	}
}

// TimeToReach returns the charging time needed to raise the capacitor from
// its current voltage to target volts at constant power p. It returns an
// error if p is not positive or the target exceeds VMax.
func (c *Capacitor) TimeToReach(target float64, p Watts) (simclock.Duration, error) {
	if p <= 0 {
		return 0, fmt.Errorf("energy: cannot charge at %g W", p)
	}
	if target > c.VMax {
		return 0, fmt.Errorf("energy: target %g V above VMax %g V", target, c.VMax)
	}
	if target <= c.v {
		return 0, nil
	}
	de := 0.5 * c.Capacitance * (target*target - c.v*c.v)
	return simclock.Duration(de / float64(p) * float64(simclock.Second)), nil
}

// Harvester yields the ambient power available at a given instant.
type Harvester interface {
	// Power returns the harvested power at time t.
	Power(t simclock.Time) Watts
}

// ConstantHarvester harvests a fixed power level, like a node at a fixed
// distance from an RF power transmitter.
type ConstantHarvester Watts

// Power implements Harvester.
func (h ConstantHarvester) Power(simclock.Time) Watts { return Watts(h) }

// TraceSample is one step of a recorded ambient-power trace.
type TraceSample struct {
	Until simclock.Time // the power level holds strictly before this instant
	Power Watts
}

// TraceHarvester replays a piecewise-constant recorded power trace, holding
// the last sample's power forever after the trace ends.
type TraceHarvester struct {
	samples []TraceSample
}

// NewTraceHarvester validates that sample boundaries are strictly increasing
// and powers non-negative.
func NewTraceHarvester(samples []TraceSample) (*TraceHarvester, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("energy: empty trace")
	}
	var prev simclock.Time
	for i, s := range samples {
		if i > 0 && s.Until <= prev {
			return nil, fmt.Errorf("energy: trace sample %d not after previous (%v <= %v)", i, s.Until, prev)
		}
		if s.Power < 0 {
			return nil, fmt.Errorf("energy: trace sample %d has negative power %g", i, s.Power)
		}
		prev = s.Until
	}
	return &TraceHarvester{samples: samples}, nil
}

// Power implements Harvester.
func (h *TraceHarvester) Power(t simclock.Time) Watts {
	for _, s := range h.samples {
		if t < s.Until {
			return s.Power
		}
	}
	return h.samples[len(h.samples)-1].Power
}

// BurstHarvester models an intermittent ambient source (e.g. a mobile RF
// transmitter) as a two-state Markov process: bursts of power pOn with
// exponentially distributed on/off dwell times. Deterministic given the seed.
type BurstHarvester struct {
	pOn          Watts
	meanOn       simclock.Duration
	meanOff      simclock.Duration
	rng          *rand.Rand
	on           bool
	nextSwitchAt simclock.Time
}

// NewBurstHarvester builds a bursty harvester starting in the on state.
func NewBurstHarvester(pOn Watts, meanOn, meanOff simclock.Duration, rng *rand.Rand) (*BurstHarvester, error) {
	if pOn <= 0 || meanOn <= 0 || meanOff <= 0 {
		return nil, fmt.Errorf("energy: burst harvester parameters must be positive")
	}
	if rng == nil {
		return nil, fmt.Errorf("energy: burst harvester needs a rand source")
	}
	h := &BurstHarvester{pOn: pOn, meanOn: meanOn, meanOff: meanOff, rng: rng, on: true}
	h.nextSwitchAt = simclock.Time(h.expDwell(meanOn))
	return h, nil
}

func (h *BurstHarvester) expDwell(mean simclock.Duration) simclock.Duration {
	return simclock.Duration(h.rng.ExpFloat64() * float64(mean))
}

// Power implements Harvester. Queries must use non-decreasing times.
func (h *BurstHarvester) Power(t simclock.Time) Watts {
	for t >= h.nextSwitchAt {
		h.on = !h.on
		mean := h.meanOn
		if !h.on {
			mean = h.meanOff
		}
		h.nextSwitchAt = h.nextSwitchAt.Add(h.expDwell(mean) + 1)
	}
	if h.on {
		return h.pOn
	}
	return 0
}

// Supply abstracts the device's power source as seen by the MCU model.
type Supply interface {
	// Drain consumes e of stored energy at instant t; it reports false on
	// brown-out (power failure).
	Drain(t simclock.Time, e Joules) bool
	// Recharge computes how long the device stays off after a brown-out at
	// instant t before it can boot again, and restores the boot budget.
	Recharge(t simclock.Time) simclock.Duration
	// Drained returns the cumulative energy consumed from this supply.
	Drained() Joules
}

// Meter is the optional capability of a supply to report its remaining
// usable energy. It backs the §4.2.2 extension scenario: an energy-aware
// property that checks the capacitor level before starting a task
// ("contingent upon suitable hardware support" — a supply without a Meter
// reports infinite energy and the property never fires).
type Meter interface {
	// Remaining returns the usable energy left before brown-out.
	Remaining() Joules
}

// Level reads a supply's remaining energy through its Meter, or +Inf when
// the supply cannot measure itself.
func Level(s Supply) Joules {
	if m, ok := s.(Meter); ok {
		return m.Remaining()
	}
	return Joules(math.Inf(1))
}

// Continuous is an ideal bench supply: infinite energy, no power failures.
// This is the paper's "continuously powered setup" (Fig. 14, 15).
type Continuous struct {
	drained Joules
}

// Drain implements Supply; it never browns out.
func (s *Continuous) Drain(_ simclock.Time, e Joules) bool {
	s.drained += e
	return true
}

// Recharge implements Supply. A continuous supply never needs to recharge.
func (s *Continuous) Recharge(simclock.Time) simclock.Duration { return 0 }

// Drained implements Supply.
func (s *Continuous) Drained() Joules { return s.drained }

// FixedDelaySupply is the evaluation's supply model: each boot provides a
// fixed usable-energy budget, and each recharge after a brown-out takes a
// fixed charging delay. Sweeping Delay from 1 to 10 minutes reproduces the
// x-axes of Figure 12 and Figure 16.
type FixedDelaySupply struct {
	Budget Joules            // usable energy per boot
	Delay  simclock.Duration // charging time after each brown-out

	remaining Joules
	drained   Joules
	failures  int
}

// NewFixedDelaySupply returns a charged supply.
func NewFixedDelaySupply(budget Joules, delay simclock.Duration) (*FixedDelaySupply, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("energy: boot budget must be positive, got %g", budget)
	}
	if delay < 0 {
		return nil, fmt.Errorf("energy: negative charging delay %v", delay)
	}
	return &FixedDelaySupply{Budget: budget, Delay: delay, remaining: budget}, nil
}

// Drain implements Supply.
func (s *FixedDelaySupply) Drain(_ simclock.Time, e Joules) bool {
	if e < 0 {
		panic(fmt.Sprintf("energy: negative drain %g", e))
	}
	s.drained += e
	s.remaining -= e
	return s.remaining > 0
}

// Recharge implements Supply.
func (s *FixedDelaySupply) Recharge(simclock.Time) simclock.Duration {
	s.remaining = s.Budget
	s.failures++
	return s.Delay
}

// Drained implements Supply.
func (s *FixedDelaySupply) Drained() Joules { return s.drained }

// Failures returns the number of brown-outs so far.
func (s *FixedDelaySupply) Failures() int { return s.failures }

// Remaining returns the usable energy left in the current boot cycle.
func (s *FixedDelaySupply) Remaining() Joules { return s.remaining }

// HarvestedSupply couples a Capacitor with a Harvester into a physical
// supply: draining follows the capacitor discharge curve, and recharging
// integrates harvested power until the turn-on voltage is reached.
type HarvestedSupply struct {
	Cap  *Capacitor
	Harv Harvester

	// Step is the integration step for recharging under a time-varying
	// harvester. Defaults to one second when zero.
	Step simclock.Duration

	drained  Joules
	failures int
}

// Drain implements Supply.
func (s *HarvestedSupply) Drain(_ simclock.Time, e Joules) bool {
	s.drained += e
	return s.Cap.Drain(e)
}

// Recharge implements Supply: integrates the harvester's power from the
// brown-out instant until the capacitor reaches the turn-on threshold. If no
// power arrives for a full simulated day, it gives up and reports a day —
// callers treat absurdly long recharges as dead deployments.
func (s *HarvestedSupply) Recharge(t simclock.Time) simclock.Duration {
	s.failures++
	step := s.Step
	if step <= 0 {
		step = simclock.Second
	}
	var off simclock.Duration
	const giveUp = 24 * simclock.Hour
	for s.Cap.Voltage() < s.Cap.VOn && off < giveUp {
		p := s.Harv.Power(t.Add(off))
		s.Cap.Charge(p, step)
		off += step
	}
	return off
}

// Drained implements Supply.
func (s *HarvestedSupply) Drained() Joules { return s.drained }

// Remaining implements Meter: the capacitor's usable energy.
func (s *HarvestedSupply) Remaining() Joules { return s.Cap.Usable() }

// Failures returns the number of brown-outs so far.
func (s *HarvestedSupply) Failures() int { return s.failures }
