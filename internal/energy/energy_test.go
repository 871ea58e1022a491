package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

func mustCap(t *testing.T) *Capacitor {
	t.Helper()
	c, err := NewCapacitor(100e-6, 5.0, 3.0, 1.8) // 100 µF, like a small intermittent node
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCapacitorValidation(t *testing.T) {
	cases := []struct{ c, vmax, von, voff float64 }{
		{0, 5, 3, 1.8},     // zero capacitance
		{-1e-6, 5, 3, 1.8}, // negative capacitance
		{1e-6, 3, 5, 1.8},  // VOn above VMax
		{1e-6, 5, 1.8, 3},  // VOff above VOn
		{1e-6, 5, 3, -1},   // negative VOff
	}
	for _, tc := range cases {
		if _, err := NewCapacitor(tc.c, tc.vmax, tc.von, tc.voff); err == nil {
			t.Errorf("NewCapacitor(%v) succeeded, want error", tc)
		}
	}
}

func TestCapacitorStartsAtTurnOn(t *testing.T) {
	c := mustCap(t)
	if c.Voltage() != 3.0 {
		t.Fatalf("initial voltage %g, want 3.0", c.Voltage())
	}
	// Usable at VOn must equal BootBudget.
	if got, want := float64(c.Usable()), float64(c.BootBudget()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Usable() = %g, BootBudget() = %g", got, want)
	}
	// ½·100µF·(3²−1.8²) = 288 µJ
	want := 0.5 * 100e-6 * (9 - 3.24)
	if math.Abs(float64(c.BootBudget())-want) > 1e-9 {
		t.Fatalf("BootBudget = %g, want %g", float64(c.BootBudget()), want)
	}
}

func TestCapacitorDrainToBrownout(t *testing.T) {
	c := mustCap(t)
	budget := c.Usable()
	if !c.Drain(budget / 2) {
		t.Fatal("draining half the budget browned out")
	}
	if c.Drain(budget) { // more than what remains
		t.Fatal("draining past the budget did not brown out")
	}
	if c.Voltage() != c.VOff {
		t.Fatalf("post-brownout voltage %g, want VOff %g", c.Voltage(), c.VOff)
	}
	if c.Usable() != 0 {
		t.Fatalf("post-brownout usable %g, want 0", float64(c.Usable()))
	}
}

// TestCapacitorDrainAgreesWithUsable pins the brown-out boundary: after
// draining 69 µJ of the 288 µJ boot budget, Usable() is 219 µJ plus a few
// ulps, so draining 219 µJ leaves the capacitor up. Comparing the stored
// energy left after the drain with the VOff floor instead rounds the other
// way and browns out.
func TestCapacitorDrainAgreesWithUsable(t *testing.T) {
	c := mustCap(t)
	if !c.Drain(Microjoules(69)) {
		t.Fatal("draining 69 µJ browned out")
	}
	e := Microjoules(219)
	if before := c.Usable(); before <= e {
		t.Fatalf("usable %.20g J, want above %.20g J", float64(before), float64(e))
	}
	if !c.Drain(e) {
		t.Fatalf("Drain(%g J) browned out although Usable() was above it", float64(e))
	}
	if c.Drain(c.Usable()) {
		t.Fatal("draining exactly Usable() did not brown out")
	}
}

func TestCapacitorDrainNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Drain(-1) did not panic")
		}
	}()
	mustCap(t).Drain(-1)
}

func TestCapacitorChargeClampsAtVMax(t *testing.T) {
	c := mustCap(t)
	c.Charge(1.0, simclock.Hour) // absurdly long charge
	if c.Voltage() != c.VMax {
		t.Fatalf("voltage %g, want clamp at VMax %g", c.Voltage(), c.VMax)
	}
}

func TestTimeToReachMatchesCharge(t *testing.T) {
	c := mustCap(t)
	c.Drain(c.Usable()) // brown out: at VOff
	p := Watts(10e-6)   // 10 µW harvested
	d, err := c.TimeToReach(c.VOn, p)
	if err != nil {
		t.Fatal(err)
	}
	// Charging for exactly d at power p must reach (approximately) VOn.
	c.Charge(p, d)
	if math.Abs(c.Voltage()-c.VOn) > 0.01 {
		t.Fatalf("after TimeToReach charge, voltage %g, want ~%g", c.Voltage(), c.VOn)
	}
}

func TestTimeToReachErrors(t *testing.T) {
	c := mustCap(t)
	if _, err := c.TimeToReach(c.VOn, 0); err == nil {
		t.Error("TimeToReach with zero power succeeded")
	}
	if _, err := c.TimeToReach(c.VMax+1, 1); err == nil {
		t.Error("TimeToReach above VMax succeeded")
	}
	if d, err := c.TimeToReach(c.VOff, 1); err != nil || d != 0 {
		t.Errorf("TimeToReach below current voltage = %v, %v; want 0, nil", d, err)
	}
}

// Property: draining never increases voltage; charging never decreases it.
func TestCapacitorMonotonicityProperty(t *testing.T) {
	f := func(drains []uint8, charges []uint8) bool {
		c := mustCapQuick()
		for _, d := range drains {
			before := c.Voltage()
			c.Drain(Microjoules(float64(d)))
			if c.Voltage() > before {
				return false
			}
		}
		for _, ch := range charges {
			before := c.Voltage()
			c.Charge(Watts(float64(ch)*1e-6), simclock.Second)
			if c.Voltage() < before || c.Voltage() > c.VMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustCapQuick() *Capacitor {
	c, err := NewCapacitor(100e-6, 5.0, 3.0, 1.8)
	if err != nil {
		panic(err)
	}
	return c
}

// Property: energy is conserved — usable energy after draining e equals
// usable-before minus e (when no brown-out occurs).
func TestCapacitorEnergyConservationProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		c := mustCapQuick()
		for _, s := range steps {
			e := Microjoules(float64(s))
			before := c.Usable()
			if before <= e {
				return true // would brown out; conservation not applicable
			}
			if !c.Drain(e) {
				return false
			}
			after := c.Usable()
			if math.Abs(float64(before-e-after)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstantHarvester(t *testing.T) {
	h := ConstantHarvester(3e-3)
	if h.Power(0) != 3e-3 || h.Power(simclock.Time(simclock.Hour)) != 3e-3 {
		t.Fatal("constant harvester not constant")
	}
}

func TestTraceHarvester(t *testing.T) {
	h, err := NewTraceHarvester([]TraceSample{
		{Until: simclock.Time(10 * simclock.Second), Power: 1e-3},
		{Until: simclock.Time(20 * simclock.Second), Power: 0},
		{Until: simclock.Time(30 * simclock.Second), Power: 2e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   simclock.Time
		want Watts
	}{
		{0, 1e-3},
		{simclock.Time(9 * simclock.Second), 1e-3},
		{simclock.Time(10 * simclock.Second), 0},
		{simclock.Time(25 * simclock.Second), 2e-3},
		{simclock.Time(99 * simclock.Second), 2e-3}, // holds last value
	}
	for _, tc := range cases {
		if got := h.Power(tc.at); got != tc.want {
			t.Errorf("Power(%v) = %g, want %g", tc.at, got, tc.want)
		}
	}
}

func TestTraceHarvesterValidation(t *testing.T) {
	if _, err := NewTraceHarvester(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTraceHarvester([]TraceSample{
		{Until: 10, Power: 1}, {Until: 5, Power: 1},
	}); err == nil {
		t.Error("non-increasing trace accepted")
	}
	if _, err := NewTraceHarvester([]TraceSample{{Until: 10, Power: -1}}); err == nil {
		t.Error("negative power accepted")
	}
}

func TestBurstHarvesterDeterministicAndBinary(t *testing.T) {
	mk := func() *BurstHarvester {
		h, err := NewBurstHarvester(3e-3, simclock.Minute, simclock.Minute, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := mk(), mk()
	sawOn, sawOff := false, false
	for i := 0; i < 1000; i++ {
		at := simclock.Time(i) * simclock.Time(simclock.Second)
		pa, pb := a.Power(at), b.Power(at)
		if pa != pb {
			t.Fatalf("burst harvester not deterministic at %v: %g vs %g", at, pa, pb)
		}
		switch pa {
		case 0:
			sawOff = true
		case 3e-3:
			sawOn = true
		default:
			t.Fatalf("burst power %g is neither 0 nor pOn", pa)
		}
	}
	if !sawOn || !sawOff {
		t.Fatalf("burst harvester never switched (on=%v off=%v)", sawOn, sawOff)
	}
}

func TestBurstHarvesterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewBurstHarvester(0, 1, 1, rng); err == nil {
		t.Error("zero power accepted")
	}
	if _, err := NewBurstHarvester(1, 0, 1, rng); err == nil {
		t.Error("zero meanOn accepted")
	}
	if _, err := NewBurstHarvester(1, 1, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestContinuousSupply(t *testing.T) {
	var s Continuous
	for i := 0; i < 1000; i++ {
		if !s.Drain(0, Millijoules(10)) {
			t.Fatal("continuous supply browned out")
		}
	}
	if s.Recharge(0) != 0 {
		t.Fatal("continuous supply has a recharge delay")
	}
	if got, want := float64(s.Drained()), 10.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Drained = %g J, want %g J", got, want)
	}
}

func TestFixedDelaySupply(t *testing.T) {
	s, err := NewFixedDelaySupply(Millijoules(1), 5*simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(0, Microjoules(400)) {
		t.Fatal("first drain browned out")
	}
	if !s.Drain(0, Microjoules(400)) {
		t.Fatal("second drain browned out")
	}
	if s.Drain(0, Microjoules(400)) { // 1200 µJ > 1 mJ budget
		t.Fatal("over-budget drain did not brown out")
	}
	if got := s.Recharge(0); got != 5*simclock.Minute {
		t.Fatalf("Recharge = %v, want 5m", got)
	}
	if s.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", s.Failures())
	}
	if float64(s.Remaining()) != float64(Millijoules(1)) {
		t.Fatalf("budget not restored after recharge: %g", float64(s.Remaining()))
	}
}

func TestFixedDelaySupplyValidation(t *testing.T) {
	if _, err := NewFixedDelaySupply(0, simclock.Minute); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewFixedDelaySupply(Millijoules(1), -simclock.Minute); err == nil {
		t.Error("negative delay accepted")
	}
}

// Property: a FixedDelaySupply browns out exactly when cumulative drain since
// the last recharge reaches the budget.
func TestFixedDelaySupplyBudgetProperty(t *testing.T) {
	f := func(drains []uint8) bool {
		s, err := NewFixedDelaySupply(Microjoules(500), simclock.Minute)
		if err != nil {
			return false
		}
		rem := float64(Microjoules(500))
		for _, d := range drains {
			e := Microjoules(float64(d))
			ok := s.Drain(0, e)
			rem -= float64(e) // same accumulation order as the supply
			if wantOK := rem > 0; ok != wantOK {
				return false
			}
			if !ok {
				s.Recharge(0)
				rem = float64(Microjoules(500))
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHarvestedSupplyRoundTrip(t *testing.T) {
	c := mustCap(t)
	s := &HarvestedSupply{Cap: c, Harv: ConstantHarvester(10e-6)}
	// Drain past the boot budget to force a brown-out.
	if s.Drain(0, c.BootBudget()+Microjoules(1)) {
		t.Fatal("over-budget drain did not brown out")
	}
	off := s.Recharge(0)
	if off <= 0 {
		t.Fatalf("Recharge = %v, want positive charging delay", off)
	}
	if c.Voltage() < c.VOn {
		t.Fatalf("after recharge voltage %g below VOn %g", c.Voltage(), c.VOn)
	}
	if s.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", s.Failures())
	}
	// Physics cross-check: 288 µJ at 10 µW is 28.8 s of charging.
	want := 28.8
	if got := off.Seconds(); math.Abs(got-want) > 2.0 {
		t.Fatalf("charging delay %.1fs, want about %.1fs", got, want)
	}
}

func TestHarvestedSupplyGivesUpWithoutPower(t *testing.T) {
	c := mustCap(t)
	s := &HarvestedSupply{Cap: c, Harv: ConstantHarvester(0), Step: simclock.Hour}
	s.Drain(0, c.BootBudget()+Microjoules(1))
	if off := s.Recharge(0); off < 24*simclock.Hour {
		t.Fatalf("Recharge with dead harvester = %v, want >= 24h give-up", off)
	}
}

func TestWattsOver(t *testing.T) {
	if got := Watts(2e-3).Over(5 * simclock.Second); math.Abs(float64(got)-10e-3) > 1e-12 {
		t.Fatalf("2mW over 5s = %g J, want 0.01 J", float64(got))
	}
}
