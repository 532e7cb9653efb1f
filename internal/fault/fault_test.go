package fault

import (
	"testing"

	"teleport/internal/sim"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if lost, extra := p.SendFault(0); lost || extra != 0 {
		t.Fatal("nil plan injected a net fault")
	}
	if _, down := p.DownAt(Pool(), sim.Second); down {
		t.Fatal("nil plan crashed the pool")
	}
	if p.CtxCrash() || p.SSDReadError() {
		t.Fatal("nil plan injected a crash")
	}
	if c := p.Counters(); c != (Counters{}) {
		t.Fatalf("nil plan counters = %v", c)
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	p := NewPlan(Profile{}, 7)
	for i := 0; i < 1000; i++ {
		if lost, extra := p.SendFault(i % MaxClasses); lost || extra != 0 {
			t.Fatal("zero profile injected a net fault")
		}
	}
	if _, down := p.DownAt(Pool(), 10*sim.Second); down {
		t.Fatal("zero profile crashed the pool")
	}
	if p.CtxCrash() || p.SSDReadError() {
		t.Fatal("zero profile injected a crash")
	}
}

func TestSendFaultRatesRoughlyMatch(t *testing.T) {
	p := NewPlan(FlakyNet(), 42)
	const n = 200000
	var lost, spiked int
	for i := 0; i < n; i++ {
		l, extra := p.SendFault(0)
		if l {
			lost++
		}
		if extra > 0 {
			spiked++
			if extra < 5e3 || extra > 20e3 {
				t.Fatalf("spike %v ns outside [5000, 20000]", extra)
			}
		}
	}
	c := p.Counters()
	if int(c.Drops+c.Corruptions) != lost || int(c.Spikes) != spiked {
		t.Fatalf("counters %v disagree with observations lost=%d spiked=%d", c, lost, spiked)
	}
	lossRate := float64(lost) / n
	if lossRate < 0.008 || lossRate > 0.016 {
		t.Fatalf("loss rate %.4f, want ≈0.012", lossRate)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := NewPlan(Chaos(), 99), NewPlan(Chaos(), 99)
	for i := 0; i < 5000; i++ {
		la, ea := a.SendFault(i % MaxClasses)
		lb, eb := b.SendFault(i % MaxClasses)
		if la != lb || ea != eb {
			t.Fatalf("streams diverge at draw %d", i)
		}
		if a.CtxCrash() != b.CtxCrash() || a.SSDReadError() != b.SSDReadError() {
			t.Fatalf("crash streams diverge at draw %d", i)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters diverge: %v vs %v", a.Counters(), b.Counters())
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := NewPlan(FlakyNet(), 1), NewPlan(FlakyNet(), 2)
	same := true
	for i := 0; i < 2000; i++ {
		la, _ := a.SendFault(0)
		lb, _ := b.SendFault(0)
		if la != lb {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault streams")
	}
}

// TestCrashScheduleQueryOrderIndependent: the crash schedule must be a pure
// function of the seed, no matter in what order virtual times are probed —
// threads with different clocks interleave their queries arbitrarily.
func TestCrashScheduleQueryOrderIndependent(t *testing.T) {
	probe := []sim.Time{
		500 * sim.Millisecond, sim.Millisecond, 90 * sim.Millisecond,
		3 * sim.Millisecond, 200 * sim.Millisecond, 40 * sim.Millisecond,
	}
	type obs struct {
		rec  sim.Time
		down bool
	}
	run := func(order []sim.Time) map[sim.Time]obs {
		p := NewPlan(CrashyPool(), 11)
		out := map[sim.Time]obs{}
		for _, at := range order {
			rec, down := p.DownAt(Pool(), at)
			out[at] = obs{rec, down}
		}
		return out
	}
	fwd := run(probe)
	rev := make([]sim.Time, len(probe))
	for i, v := range probe {
		rev[len(probe)-1-i] = v
	}
	bwd := run(rev)
	for at, o := range fwd {
		if bwd[at] != o {
			t.Fatalf("schedule differs at %v: %v vs %v", at, o, bwd[at])
		}
	}
}

func TestCrashWindowsAlternateAndRecover(t *testing.T) {
	p := NewPlan(CrashyPool(), 5)
	// Find a down window by scanning; every outage must report a recovery
	// time strictly in the future, after which the pool is up again.
	found := false
	for at := sim.Time(0); at < 2*sim.Second; at += 100 * sim.Microsecond {
		rec, down := p.DownAt(Pool(), at)
		if !down {
			continue
		}
		found = true
		if rec <= at {
			t.Fatalf("recovery %v not after crash observation %v", rec, at)
		}
		if _, still := p.DownAt(Pool(), rec); still {
			t.Fatalf("pool still down at its own recovery time %v", rec)
		}
	}
	if !found {
		t.Fatal("no crash window in 2s of virtual time under crashy-pool")
	}
	if p.Counters().PoolWindows == 0 {
		t.Fatal("no windows counted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if p, err := ByName(""); err != nil || p != (Profile{Name: "none"}) {
		t.Fatalf("ByName(\"\") = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	root := sim.NewRNG(123)
	a := root.Derive(1)
	b := root.Derive(2)
	// Drawing from a must not change b's future stream.
	b2 := sim.NewRNG(123).Derive(2)
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	for i := 0; i < 100; i++ {
		if b.Uint64() != b2.Uint64() {
			t.Fatal("derived streams are not independent")
		}
	}
}
