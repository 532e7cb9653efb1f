package hw

import (
	"math"
	"testing"
)

func TestTestbedValid(t *testing.T) {
	c := Testbed()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpNs(t *testing.T) {
	if got := OpNs(2.0, 10); got != 5.0 {
		t.Fatalf("OpNs(2,10) = %v, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero clock")
		}
	}()
	OpNs(0, 1)
}

func TestMsgNs(t *testing.T) {
	c := Testbed()
	// A 4 KB page at 7 GB/s plus 1.2 µs latency.
	want := 1200 + 4096/7.0
	if got := c.MsgNs(4096); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MsgNs(4096) = %v, want %v", got, want)
	}
	if got := c.MsgNs(0); got != 1200 {
		t.Fatalf("MsgNs(0) = %v, want pure latency", got)
	}
}

func TestRoundTripNs(t *testing.T) {
	c := Testbed()
	want := c.MsgNs(100) + c.NetHandlerNs + c.MsgNs(4096)
	if got := c.RoundTripNs(100, 4096); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RoundTripNs = %v, want %v", got, want)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := Testbed()
	cases := []func(*Config){
		func(c *Config) { c.ComputeClockGHz = 0 },
		func(c *Config) { c.MemoryClockGHz = -1 },
		func(c *Config) { c.MemoryPoolCores = 0 },
		func(c *Config) { c.NetBandwidthGBs = 0 },
		func(c *Config) { c.SSDSeqGBs = 0 },
		func(c *Config) { c.DRAMLineBytes = 0 },
		func(c *Config) { c.CacheLines = -1 },
		func(c *Config) { c.CacheLines = 100 },
		func(c *Config) { c.CacheLines = 8191 },
	}
	for i, mutate := range cases {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken config", i)
		}
	}
}

func TestValidateAcceptsCacheLinePowers(t *testing.T) {
	for _, lines := range []int{0, 1, 2, 1024, 8192} {
		c := Testbed()
		c.CacheLines = lines
		if err := c.Validate(); err != nil {
			t.Errorf("CacheLines=%d: %v", lines, err)
		}
	}
}

func TestClockRatioShapesCost(t *testing.T) {
	// Throttling the memory clock (§7.3) must make memory-pool ops slower
	// proportionally.
	full := OpNs(2.1, 1000)
	throttled := OpNs(0.4, 1000)
	if ratio := throttled / full; math.Abs(ratio-2.1/0.4) > 1e-9 {
		t.Fatalf("throttle ratio = %v", ratio)
	}
}
