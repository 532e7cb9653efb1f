package fault

import (
	"testing"

	"teleport/internal/sim"
)

// Same seed, same per-shard crash schedule — regardless of query order or
// how many other shards were queried in between.
func TestShardDownAtSameSeedIdentical(t *testing.T) {
	prof := Profile{Name: "t", ShardMeanUp: sim.Millisecond, ShardMeanDown: 100 * sim.Microsecond}
	type probe struct {
		rec  sim.Time
		down bool
	}
	draw := func(order []int) map[int][]probe {
		p := NewPlan(prof, 42)
		out := map[int][]probe{}
		for step := 0; step < 200; step++ {
			at := sim.Time(step) * 50 * sim.Microsecond
			for _, s := range order {
				rec, down := p.DownAt(Shard(s), at)
				out[s] = append(out[s], probe{rec, down})
			}
		}
		return out
	}
	a := draw([]int{0, 1, 2, 3})
	b := draw([]int{3, 1, 0, 2}) // different creation/query order
	for s := 0; s < 4; s++ {
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("shard %d probe %d differs across query orders: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
}

// Distinct shards get distinct schedules (independent derived streams).
func TestShardSchedulesIndependent(t *testing.T) {
	prof := Profile{Name: "t", ShardMeanUp: sim.Millisecond, ShardMeanDown: 100 * sim.Microsecond}
	p := NewPlan(prof, 7)
	horizon := 50 * sim.Millisecond
	w0 := p.Through(Shard(0), horizon)
	w1 := p.Through(Shard(1), horizon)
	if len(w0) == 0 || len(w1) == 0 {
		t.Fatalf("expected windows on both shards, got %d and %d", len(w0), len(w1))
	}
	same := len(w0) == len(w1)
	if same {
		for i := range w0 {
			if w0[i] != w1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("shard 0 and shard 1 drew identical schedules")
	}
}

// Querying shard schedules must not shift the whole-controller crash
// schedule: the pool stream and the shard streams are independent, so
// existing profiles' draws are unshifted by the sharding extension.
func TestShardDrawsDoNotShiftPoolSchedule(t *testing.T) {
	prof := Profile{
		Name:       "t",
		PoolMeanUp: 5 * sim.Millisecond, PoolMeanDown: 500 * sim.Microsecond,
		ShardMeanUp: sim.Millisecond, ShardMeanDown: 100 * sim.Microsecond,
	}
	poolOnly := NewPlan(prof, 11)
	mixed := NewPlan(prof, 11)
	for step := 0; step < 400; step++ {
		at := sim.Time(step) * 100 * sim.Microsecond
		// Interleave shard draws on the mixed plan only.
		for s := 0; s < 4; s++ {
			mixed.DownAt(Shard(s), at)
		}
		ra, da := poolOnly.DownAt(Pool(), at)
		rb, db := mixed.DownAt(Pool(), at)
		if ra != rb || da != db {
			t.Fatalf("DownAt(Pool(), %v) shifted by shard draws: (%v,%v) vs (%v,%v)", at, ra, da, rb, db)
		}
	}
}

// A profile without shard crashes never reports a shard down, and a nil
// plan is inert.
func TestShardDownAtDisabled(t *testing.T) {
	p := NewPlan(Profile{Name: "t", PoolMeanUp: sim.Millisecond}, 1)
	for step := 0; step < 100; step++ {
		if _, down := p.DownAt(Shard(0), sim.Time(step)*sim.Millisecond); down {
			t.Fatal("shard down with ShardMeanUp == 0")
		}
	}
	if p.Counters().ShardWindows != 0 {
		t.Fatalf("ShardWindows = %d, want 0", p.Counters().ShardWindows)
	}
	var nilPlan *Plan
	if _, down := nilPlan.DownAt(Shard(0), sim.Second); down {
		t.Fatal("nil plan reported a shard down")
	}
	if ws := nilPlan.Through(Shard(0), sim.Second); ws != nil {
		t.Fatalf("nil plan returned shard windows %v", ws)
	}
}

// Pin pins exact half-open outage windows on one shard without
// touching the others.
func TestSetShardWindowsExact(t *testing.T) {
	const d, u = 10 * sim.Microsecond, 20 * sim.Microsecond
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Shard(1), Window{Down: d, Up: u})

	cases := []struct {
		at   sim.Time
		down bool
		rec  sim.Time
	}{
		{0, false, 0},
		{d - 1, false, 0},
		{d, true, u},
		{u - 1, true, u},
		{u, false, 0}, // half-open: up at exactly Up
	}
	for _, tc := range cases {
		rec, down := p.DownAt(Shard(1), tc.at)
		if down != tc.down || rec != tc.rec {
			t.Fatalf("DownAt(Shard(1), %v) = (%v, %v), want (%v, %v)", tc.at, rec, down, tc.rec, tc.down)
		}
	}
	if _, down := p.DownAt(Shard(0), d); down {
		t.Fatal("window pinned on shard 1 leaked to shard 0")
	}
	if got := p.Counters().ShardWindows; got != 1 {
		t.Fatalf("ShardWindows = %d, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("overlapping shard windows did not panic")
		}
	}()
	p.Pin(Shard(2),
		Window{Down: 10 * sim.Microsecond, Up: 30 * sim.Microsecond},
		Window{Down: 20 * sim.Microsecond, Up: 40 * sim.Microsecond},
	)
}

// Through exposes the generated schedule: every returned window's
// half-open boundaries must agree with DownAt, and a later horizon only
// appends windows.
func TestWindowsThroughMatchesProbing(t *testing.T) {
	p := NewPlan(Profile{Name: "t", PoolMeanUp: sim.Millisecond, PoolMeanDown: 200 * sim.Microsecond}, 3)
	const through = 20 * sim.Millisecond
	ws := p.Through(Pool(), through)
	if len(ws) == 0 {
		t.Fatal("no windows generated through 20ms with 1ms mean uptime")
	}
	for i, w := range ws {
		if rec, down := p.DownAt(Pool(), w.Down); !down || rec != w.Up {
			t.Fatalf("window %d: DownAt(Pool(), Down=%v) = (%v, %v), want (%v, true)", i, w.Down, rec, down, w.Up)
		}
		if rec, down := p.DownAt(Pool(), w.Up-1); !down || rec != w.Up {
			t.Fatalf("window %d: DownAt(Pool(), Up-1=%v) = (%v, %v), want (%v, true)", i, w.Up-1, rec, down, w.Up)
		}
		if _, down := p.DownAt(Pool(), w.Down-1); down {
			t.Fatalf("window %d: down just before Down=%v", i, w.Down)
		}
	}
	// A later horizon can only append windows, never rewrite earlier ones.
	more := p.Through(Pool(), 2*through)
	if len(more) < len(ws) {
		t.Fatalf("later horizon returned fewer windows: %d < %d", len(more), len(ws))
	}
	for i := range ws {
		if more[i] != ws[i] {
			t.Fatalf("window %d rewritten by later horizon: %+v vs %+v", i, more[i], ws[i])
		}
	}
}

func TestTotalDowntimeClipsToThrough(t *testing.T) {
	ws := []Window{
		{Down: 10, Up: 20},
		{Down: 30, Up: 50},
	}
	cases := []struct {
		through sim.Time
		want    sim.Time
	}{
		{0, 0},
		{15, 5},
		{25, 10},
		{40, 20},
		{100, 30},
	}
	for _, tc := range cases {
		if got := TotalDowntime(ws, tc.through); got != tc.want {
			t.Fatalf("TotalDowntime(through=%v) = %v, want %v", tc.through, got, tc.want)
		}
	}
}

func TestUnionDowntimeMergesOverlaps(t *testing.T) {
	// Unsorted, with an overlap, a containment, an adjacency, and a gap:
	// union is [10,40) ∪ [50,60) = 40.
	ws := []Window{
		{Down: 20, Up: 40},
		{Down: 10, Up: 25},
		{Down: 12, Up: 18}, // contained
		{Down: 40, Up: 40}, // zero-length, adjacent
		{Down: 50, Up: 60},
	}
	if got := UnionDowntime(ws, 100); got != 40 {
		t.Fatalf("UnionDowntime = %v, want 40", got)
	}
	if got := UnionDowntime(ws, 55); got != 35 {
		t.Fatalf("UnionDowntime(through=55) = %v, want 35", got)
	}
	if got := UnionDowntime(nil, 100); got != 0 {
		t.Fatalf("UnionDowntime(nil) = %v, want 0", got)
	}
	// Disjoint schedules sum like TotalDowntime.
	dj := []Window{{Down: 0, Up: 5}, {Down: 10, Up: 15}}
	if UnionDowntime(dj, 100) != TotalDowntime(dj, 100) {
		t.Fatal("disjoint union differs from plain sum")
	}
}

// Params renders every active knob and the shipped shard profiles are listed.
func TestProfilesIncludeShardProfiles(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		names[p.Name] = true
		if p.Params() == "no faults" {
			t.Errorf("shipped profile %q renders as injecting nothing", p.Name)
		}
	}
	for _, want := range []string{"shard-flap", "shard-chaos"} {
		if !names[want] {
			t.Errorf("profile %q not shipped", want)
		}
	}
	if (Profile{}).Params() != "no faults" {
		t.Errorf("zero profile Params() = %q, want \"no faults\"", Profile{}.Params())
	}
}
