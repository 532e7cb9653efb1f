package fault

import (
	"strings"
	"testing"

	"teleport/internal/sim"
)

func TestWindowPlanHalfOpenBoundaries(t *testing.T) {
	const d1, u1 = 10 * sim.Microsecond, 20 * sim.Microsecond
	const d2, u2 = 50 * sim.Microsecond, 60 * sim.Microsecond
	p := NewPlan(Profile{Name: "windows"}, 0)
	p.Pin(Pool(), Window{Down: d1, Up: u1}, Window{Down: d2, Up: u2})

	cases := []struct {
		at   sim.Time
		down bool
		rec  sim.Time
	}{
		{0, false, 0},
		{d1 - 1, false, 0},
		{d1, true, u1},
		{u1 - 1, true, u1},
		{u1, false, 0}, // half-open: up at exactly Up
		{d2, true, u2},
		{u2, false, 0},
		{u2 + sim.Second, false, 0}, // static schedule never extends
	}
	for _, tc := range cases {
		rec, down := p.DownAt(Pool(), tc.at)
		if down != tc.down || rec != tc.rec {
			t.Fatalf("DownAt(Pool(), %v) = (%v, %v), want (%v, %v)", tc.at, rec, down, tc.rec, tc.down)
		}
	}
	if got := p.Counters().PoolWindows; got != 2 {
		t.Fatalf("PoolWindows = %d, want 2", got)
	}
}

func TestWindowPlanRejectsUnsortedWindows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping windows did not panic")
		}
	}()
	NewPlan(Profile{Name: "windows"}, 0).Pin(Pool(),
		Window{Down: 10 * sim.Microsecond, Up: 30 * sim.Microsecond},
		Window{Down: 20 * sim.Microsecond, Up: 40 * sim.Microsecond},
	)
}

// Same seed, same sequence of mid-execution crash decisions and fractions.
func TestCtxCrashMidSameSeedIdentical(t *testing.T) {
	draw := func() (fracs []float64, crashes []bool) {
		p := NewPlan(Profile{Name: "t", CtxCrashMidProb: 0.4}, 99)
		for i := 0; i < 500; i++ {
			f, c := p.CtxCrashMid()
			fracs = append(fracs, f)
			crashes = append(crashes, c)
		}
		return
	}
	f1, c1 := draw()
	f2, c2 := draw()
	for i := range f1 {
		if f1[i] != f2[i] || c1[i] != c2[i] {
			t.Fatalf("draw %d differs across same-seed plans: (%v,%v) vs (%v,%v)", i, f1[i], c1[i], f2[i], c2[i])
		}
	}
}

// The mid-crash stream is independent of the pre-commit crash stream:
// enabling CtxCrashMidProb must not shift the CtxCrash sequence (and vice
// versa), so adding mid-crashes to a profile leaves existing draws intact.
func TestCtxCrashMidStreamIndependent(t *testing.T) {
	const seed = 7
	plain := NewPlan(Profile{Name: "a", CtxCrashProb: 0.5}, seed)
	mixed := NewPlan(Profile{Name: "b", CtxCrashProb: 0.5, CtxCrashMidProb: 0.5}, seed)
	for i := 0; i < 1000; i++ {
		// Interleave mid-crash draws on the mixed plan only.
		if i%3 == 0 {
			mixed.CtxCrashMid()
		}
		if plain.CtxCrash() != mixed.CtxCrash() {
			t.Fatalf("CtxCrash draw %d shifted when mid-crash draws were interleaved", i)
		}
	}
}

// A zero-probability profile never arms a mid-crash and counts nothing.
func TestCtxCrashMidDisabled(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 1)
	for i := 0; i < 100; i++ {
		if _, crash := p.CtxCrashMid(); crash {
			t.Fatal("CtxCrashMid armed with probability 0")
		}
	}
	if p.Counters().CtxMidCrashes != 0 {
		t.Fatalf("CtxMidCrashes = %d, want 0", p.Counters().CtxMidCrashes)
	}
	var nilPlan *Plan
	if _, crash := nilPlan.CtxCrashMid(); crash {
		t.Fatal("nil plan armed a mid-crash")
	}
}

func TestCountersStringIncludesAllFields(t *testing.T) {
	c := Counters{
		Drops: 1, Corruptions: 2, Spikes: 3, CtxCrashes: 4,
		CtxMidCrashes: 5, SSDReadErrors: 6, PoolWindows: 7, ShardWindows: 8,
	}
	s := c.String()
	for _, want := range []string{
		"drops=1", "corrupt=2", "spikes=3", "ctx-crashes=4",
		"ctx-mid-crashes=5", "ssd-errs=6", "crash-windows=7", "shard-windows=8",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("Counters.String() = %q, missing %q", s, want)
		}
	}
}
