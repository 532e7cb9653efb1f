package fault

import (
	"testing"

	"teleport/internal/sim"
)

// Boundary semantics of the window algebra: every schedule is a list of
// half-open [Down, Up) windows, zero-length windows are inert, and
// UnionDowntime merges overlapping and exactly-adjacent windows from any mix
// of schedules (shards, links, the controller) without double counting.

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestUnionDowntimeBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		ws      []Window
		through sim.Time
		want    sim.Time
	}{
		{"empty", nil, us(100), 0},
		{"disjoint", []Window{{us(10), us(20)}, {us(40), us(50)}}, us(100), us(20)},
		{"overlapping across shards", []Window{{us(10), us(30)}, {us(20), us(40)}}, us(100), us(30)},
		{"exactly adjacent merge", []Window{{us(10), us(20)}, {us(20), us(30)}}, us(100), us(20)},
		{"contained", []Window{{us(10), us(50)}, {us(20), us(30)}}, us(100), us(40)},
		{"identical twice", []Window{{us(10), us(20)}, {us(10), us(20)}}, us(100), us(10)},
		{"zero-length inert", []Window{{us(10), us(10)}}, us(100), 0},
		{"zero-length inside a window", []Window{{us(10), us(30)}, {us(20), us(20)}}, us(100), us(20)},
		{"zero-length bridges nothing", []Window{{us(10), us(20)}, {us(20), us(20)}, {us(25), us(30)}}, us(100), us(15)},
		{"clipped at through", []Window{{us(10), us(50)}}, us(30), us(20)},
		{"entirely past through", []Window{{us(50), us(60)}}, us(30), 0},
		{"unsorted input", []Window{{us(40), us(50)}, {us(10), us(20)}, {us(15), us(45)}}, us(100), us(40)},
	}
	for _, tc := range cases {
		if got := UnionDowntime(tc.ws, tc.through); got != tc.want {
			t.Errorf("%s: UnionDowntime = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The input slice is not modified (UnionDowntime sorts a copy).
	ws := []Window{{us(40), us(50)}, {us(10), us(20)}}
	UnionDowntime(ws, us(100))
	if ws[0].Down != us(40) || ws[1].Down != us(10) {
		t.Error("UnionDowntime reordered its input slice")
	}
}

func TestLinkWindowsHalfOpenBoundaries(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Link(0, 1),
		Window{Down: us(10), Up: us(20)},
		Window{Down: us(20), Up: us(30)}, // exactly adjacent: one continuous outage
		Window{Down: us(40), Up: us(40)}, // zero-length: inert
	)
	cases := []struct {
		at   sim.Time
		down bool
		rec  sim.Time
	}{
		{0, false, 0},
		{us(10) - 1, false, 0},
		{us(10), true, us(20)},
		{us(20) - 1, true, us(20)},
		{us(20), true, us(30)}, // adjacency: the second window covers Up of the first
		{us(30) - 1, true, us(30)},
		{us(30), false, 0}, // half-open: up at exactly Up
		{us(40), false, 0}, // zero-length window covers no instant
		{us(40) + 1, false, 0},
	}
	for _, tc := range cases {
		rec, down := p.DownAt(Link(0, 1), tc.at)
		if down != tc.down || rec != tc.rec {
			t.Fatalf("DownAt(Link(0, 1), %v) = (%v, %v), want (%v, %v)", tc.at, rec, down, tc.rec, tc.down)
		}
	}
	// Directions are independent: the reverse link never went down.
	if _, down := p.DownAt(Link(1, 0), us(15)); down {
		t.Fatal("pinning 0→1 windows partitioned the 1→0 direction")
	}
	// Degenerate endpoints are never partitioned.
	if _, down := p.DownAt(Link(1, 1), us(15)); down {
		t.Fatal("self-link reported down")
	}
	if got := p.Counters().LinkWindows; got != 3 {
		t.Fatalf("LinkWindows = %d, want 3", got)
	}
}

func TestSetLinkWindowsRejectsOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping link windows did not panic")
		}
	}()
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Link(EndpointCompute, 0),
		Window{Down: us(10), Up: us(30)},
		Window{Down: us(20), Up: us(40)},
	)
}

// Through(Link) returns exactly the windows DownAt reports down
// for: pinned windows beginning before the horizon, and — when the endpoints
// sit on opposite sides of the split-brain cut — the split windows too.
func TestLinkWindowsThroughIncludesSplit(t *testing.T) {
	p := NewPlan(Profile{Name: "split", SplitMeanUp: sim.Millisecond, SplitMeanDown: 100 * sim.Microsecond}, 11)
	const horizon = 20 * sim.Millisecond
	// Compute (side 0) ↔ shard 1 (side 1) crosses the cut.
	cross := p.Through(Link(EndpointCompute, 1), horizon)
	if len(cross) == 0 {
		t.Fatal("split profile generated no windows across the cut")
	}
	for _, w := range cross {
		if w.Down >= horizon {
			t.Fatalf("window [%v,%v) begins past the horizon %v", w.Down, w.Up, horizon)
		}
		mid := w.Down + (w.Up-w.Down)/2
		if _, down := p.DownAt(Link(EndpointCompute, 1), mid); !down {
			t.Fatalf("DownAt up at %v inside reported window [%v,%v)", mid, w.Down, w.Up)
		}
	}
	// Shards 0 and 2 share a side: the cut never severs them.
	if same := p.Through(Link(0, 2), horizon); len(same) != 0 {
		t.Fatalf("same-side link got %d split windows", len(same))
	}
	// Both directions of a cut-crossing link see the identical correlated
	// schedule.
	rev := p.Through(Link(1, EndpointCompute), horizon)
	if len(rev) != len(cross) {
		t.Fatalf("cut windows differ by direction: %d vs %d", len(rev), len(cross))
	}
	for i := range rev {
		if rev[i] != cross[i] {
			t.Fatalf("cut window %d differs by direction: %+v vs %+v", i, rev[i], cross[i])
		}
	}
}

// Through horizons are exclusive of later windows but keep ones
// that straddle the horizon; TotalDowntime then clips at the horizon. The
// same algebra backs the shard and link variants.
func TestShardWindowsThroughBoundaries(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Shard(2),
		Window{Down: us(10), Up: us(20)},
		Window{Down: us(30), Up: us(90)},  // straddles the horizon below
		Window{Down: us(95), Up: us(100)}, // begins past it
	)
	ws := p.Through(Shard(2), us(50))
	if len(ws) != 2 {
		t.Fatalf("Through returned %d windows, want 2 (past-horizon window excluded)", len(ws))
	}
	if got := TotalDowntime(ws, us(50)); got != us(30) {
		t.Fatalf("TotalDowntime = %v, want %v (10 full + 20 clipped)", got, us(30))
	}
	if got := UnionDowntime(ws, us(50)); got != us(30) {
		t.Fatalf("UnionDowntime = %v, want %v", got, us(30))
	}
}

// Every component of a MaxShards-shard pool draws from a stream of its own:
// the pool, each shard, each directed link and the split cut map to
// distinct salts, and every shard salt stays below the split salt.
func TestComponentSaltsDistinct(t *testing.T) {
	if MaxShards != 511 {
		t.Fatalf("MaxShards = %d, want 511", MaxShards)
	}
	seen := map[uint64]Component{}
	add := func(c Component) {
		t.Helper()
		if prev, dup := seen[c.salt()]; dup {
			t.Fatalf("%+v and %+v share salt %#x", prev, c, c.salt())
		}
		seen[c.salt()] = c
	}
	add(Pool())
	add(splitCut)
	for s := 0; s < MaxShards; s++ {
		if Shard(s).salt() >= splitSalt {
			t.Fatalf("shard %d salt %#x reaches the split salt", s, Shard(s).salt())
		}
		add(Shard(s))
	}
	for from := EndpointCompute; from < MaxShards; from++ {
		for to := EndpointCompute; to < MaxShards; to++ {
			if from != to {
				add(Link(from, to))
			}
		}
	}
	// The layer streams (net 1, ctx 3, ssd 4, ctxMid 5) stay distinct too.
	for _, salt := range []uint64{1, 3, 4, 5} {
		if c, dup := seen[salt]; dup {
			t.Fatalf("%+v shares layer salt %d", c, salt)
		}
	}
}
