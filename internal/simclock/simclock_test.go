package simclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %d, want 0", c.Now())
	}
	if c.OnTime() != 0 || c.OffTime() != 0 || c.Reboots() != 0 {
		t.Fatalf("zero clock accounting non-zero: on=%d off=%d reboots=%d",
			c.OnTime(), c.OffTime(), c.Reboots())
	}
}

func TestAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * Second)
	c.Advance(100 * Millisecond)
	want := Time(5*Second + 100*Millisecond)
	if c.Now() != want {
		t.Fatalf("Now = %d, want %d", c.Now(), want)
	}
	if c.OnTime() != Duration(want) {
		t.Fatalf("OnTime = %d, want %d", c.OnTime(), want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestPowerFailureNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PowerFailure(-1) did not panic")
		}
	}()
	var c Clock
	c.PowerFailure(-1)
}

func TestPowerFailureKeepsCounting(t *testing.T) {
	var c Clock
	c.Advance(2 * Second)
	c.PowerFailure(3 * Minute)
	c.Advance(1 * Second)
	want := Time(3*Second + 3*Minute)
	if c.Now() != want {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
	if c.Reboots() != 1 {
		t.Fatalf("Reboots = %d, want 1", c.Reboots())
	}
	if c.OffTime() != 3*Minute {
		t.Fatalf("OffTime = %v, want 3m", c.OffTime())
	}
}

func TestOffJitterBounded(t *testing.T) {
	c := Clock{OffJitterPPM: 1e5, Rand: rand.New(rand.NewSource(42))}
	for i := 0; i < 100; i++ {
		before := c.Now()
		c.PowerFailure(1 * Minute)
		got := c.Now().Sub(before)
		lo, hi := Minute*9/10, Minute*11/10
		if got < lo || got > hi {
			t.Fatalf("jittered off period %v outside [%v, %v]", got, lo, hi)
		}
	}
}

func TestReset(t *testing.T) {
	var c Clock
	c.Advance(Second)
	c.PowerFailure(Minute)
	c.Reset()
	if c.Now() != 0 || c.OnTime() != 0 || c.OffTime() != 0 || c.Reboots() != 0 {
		t.Fatal("Reset did not clear clock state")
	}
}

// Property: the clock is monotonic under any sequence of advances and power
// failures (with no jitter).
func TestMonotonicityProperty(t *testing.T) {
	f := func(steps []uint16, offs []uint16) bool {
		var c Clock
		prev := c.Now()
		for i := range steps {
			c.Advance(Duration(steps[i]))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
			if i < len(offs) {
				c.PowerFailure(Duration(offs[i]))
				if c.Now() < prev {
					return false
				}
				prev = c.Now()
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Now equals OnTime + OffTime for a jitter-free clock.
func TestTimeDecompositionProperty(t *testing.T) {
	f := func(ons []uint16, offs []uint16) bool {
		var c Clock
		for _, d := range ons {
			c.Advance(Duration(d))
		}
		for _, d := range offs {
			c.PowerFailure(Duration(d))
		}
		return Duration(c.Now()) == c.OnTime()+c.OffTime()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesToDuration(t *testing.T) {
	tests := []struct {
		cycles int64
		hz     float64
		want   Duration
	}{
		{0, 1e6, 0},
		{-5, 1e6, 0},
		{1, 1e6, Microsecond},    // 1 cycle at 1 MHz = 1 µs
		{1000, 1e6, Millisecond}, // 1000 cycles at 1 MHz = 1 ms
		{1_000_000, 1e6, Second}, // 1M cycles at 1 MHz = 1 s
		{8, 8e6, Microsecond},    // 8 cycles at 8 MHz = 1 µs
		{1, 16e6, Microsecond},   // sub-µs work rounds up to 1 µs
		{60_000_000, 1e6, 60 * Second},
	}
	for _, tt := range tests {
		if got := CyclesToDuration(tt.cycles, tt.hz); got != tt.want {
			t.Errorf("CyclesToDuration(%d, %g) = %v, want %v", tt.cycles, tt.hz, got, tt.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in   string
		want Duration
		ok   bool
	}{
		{"5min", 5 * Minute, true},
		{"5m", 5 * Minute, true},
		{"100ms", 100 * Millisecond, true},
		{"3s", 3 * Second, true},
		{"3sec", 3 * Second, true},
		{"2h", 2 * Hour, true},
		{"7us", 7 * Microsecond, true},
		{"0s", 0, true},
		{"", 0, false},
		{"ms", 0, false},
		{"5", 0, false},
		{"5fortnights", 0, false},
		{"-3s", 0, false},
	}
	for _, tt := range tests {
		got, err := ParseDuration(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseDuration(%q) err = %v, want ok=%v", tt.in, err, tt.ok)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{5 * Minute, "5m"},
		{100 * Millisecond, "100ms"},
		{3 * Second, "3s"},
		{2 * Hour, "2h"},
		{1500, "1500us"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.d), got, tt.want)
		}
	}
}

// Property: ParseDuration(d.String()) == d for unit-aligned durations.
func TestDurationStringRoundTripProperty(t *testing.T) {
	units := []Duration{Microsecond, Millisecond, Second, Minute, Hour}
	f := func(n uint16, unitIdx uint8) bool {
		d := Duration(n) * units[int(unitIdx)%len(units)]
		got, err := ParseDuration(d.String())
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSubAndAdd(t *testing.T) {
	t0 := Time(10 * Second)
	t1 := t0.Add(5 * Second)
	if t1.Sub(t0) != 5*Second {
		t.Fatalf("Sub = %v, want 5s", t1.Sub(t0))
	}
}
