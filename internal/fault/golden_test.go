package fault

import (
	"testing"

	"teleport/internal/sim"
)

// The schedules' exact output through 5 ms, recorded as literals: one fixed
// seed, a profile enabling every outage kind, and the windows of the pool,
// two shards, and three links (1→2 crosses the split-brain cut, so it
// carries the split windows after its own). The same-seed tests compare the
// code with itself; this one catches a changed salt, mean, or draw order.
func TestScheduleGoldenWindows(t *testing.T) {
	prof := Profile{
		Name:          "golden",
		PoolMeanUp:    sim.Millisecond,
		PoolMeanDown:  100 * sim.Microsecond,
		ShardMeanUp:   800 * sim.Microsecond,
		ShardMeanDown: 120 * sim.Microsecond,
		LinkMeanUp:    600 * sim.Microsecond,
		LinkMeanDown:  50 * sim.Microsecond,
		SplitMeanUp:   sim.Millisecond,
		SplitMeanDown: 80 * sim.Microsecond,
	}
	p := NewPlan(prof, 20221)
	const through = 5 * sim.Millisecond
	split := []Window{{917152, 1003602}, {2337087, 2445821}, {3238185, 3355013}, {4600265, 4652963}}
	cases := []struct {
		name string
		got  []Window
		want []Window
	}{
		{"pool", p.Through(Pool(), through), []Window{
			{552325, 611928}, {1157992, 1254433}, {1809652, 1893083}, {2971554, 3053008}, {4429846, 4543675},
		}},
		{"shard 0", p.Through(Shard(0), through), []Window{
			{807655, 925948}, {1432706, 1506328}, {2080908, 2199104}, {2949324, 3060449}, {3591145, 3720997},
			{4808741, 4954381},
		}},
		{"shard 3", p.Through(Shard(3), through), []Window{
			{647760, 801869}, {1229553, 1344518}, {1754171, 1831982}, {2502431, 2577899}, {3719676, 3811967},
			{4945610, 5038811},
		}},
		{"link compute→1", p.Through(Link(EndpointCompute, 1), through), append([]Window{
			{404782, 457660}, {1171304, 1217542}, {1979645, 2021301}, {2736117, 2764223}, {3168554, 3224653},
			{3966999, 4004532}, {4667603, 4725351},
		}, split...)},
		{"link 2→compute", p.Through(Link(2, EndpointCompute), through), []Window{
			{368968, 401683}, {1028269, 1075572}, {1730276, 1779934}, {2246766, 2297094}, {2911793, 2962879},
			{3389285, 3452758}, {3994063, 4036537}, {4638832, 4685323},
		}},
		{"link 1→2", p.Through(Link(1, 2), through), append([]Window{
			{607222, 667918}, {1448176, 1503538}, {2042209, 2088314}, {2802765, 2836589}, {3537314, 3607522},
			{4317325, 4379271}, {4764754, 4818356},
		}, split...)},
	}
	for _, tc := range cases {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: %d windows %v, want %d %v", tc.name, len(tc.got), tc.got, len(tc.want), tc.want)
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Fatalf("%s: window %d = %v, want %v", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
	want := Counters{PoolWindows: 6, ShardWindows: 13, LinkWindows: 25, SplitWindows: 5}
	if got := p.Counters(); got != want {
		t.Fatalf("Counters = %+v, want %+v", got, want)
	}
}
