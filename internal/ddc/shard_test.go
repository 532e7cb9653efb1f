package ddc

import (
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

func TestShardOfStripes(t *testing.T) {
	for pg := mem.PageID(0); pg < 100; pg++ {
		if got := ShardOf(pg, 4); got != int(pg)%4 {
			t.Fatalf("ShardOf(%d, 4) = %d, want %d", pg, got, int(pg)%4)
		}
		if ShardOf(pg, 1) != 0 || ShardOf(pg, 0) != 0 {
			t.Fatalf("ShardOf(%d, ≤1) != 0", pg)
		}
	}
}

// shardMachine builds a K-shard, R-replica machine with pinned per-shard
// outage windows on shard 0.
func shardMachine(t *testing.T, shards, replicas int, ws ...fault.Window) (*Machine, *fault.Plan) {
	t.Helper()
	cfg := BaseDDC(64 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas = shards, replicas
	m := MustMachine(cfg)
	plan := fault.NewPlan(fault.Profile{Name: "t"}, 0)
	plan.Pin(fault.Shard(0), ws...)
	m.AttachFault(plan)
	return m, plan
}

// On a single-shard pool AccessPage is exactly WaitPoolUp: shard 0 serves
// everything and no virtual time is charged when the controller is up.
func TestAccessPageSingleShardFree(t *testing.T) {
	m := MustMachine(BaseDDC(64 * mem.PageSize))
	th := sim.NewThread("t")
	if s := m.AccessPage(th, 7, true); s != 0 {
		t.Fatalf("AccessPage on 1-shard pool served by shard %d, want 0", s)
	}
	if th.Now() != 0 {
		t.Fatalf("AccessPage on a healthy 1-shard pool charged %v", th.Now())
	}
	if m.ShardStats != nil {
		t.Fatal("ShardStats allocated for a single-shard machine")
	}
}

// A read whose primary shard is down is served by the next live replica:
// failover latency is charged, the failover span is traced, and the
// per-shard counter attributes the read to the down primary.
func TestAccessPageFailsOverToReplica(t *testing.T) {
	const down, up = 10 * sim.Microsecond, 50 * sim.Microsecond
	m, _ := shardMachine(t, 4, 2, fault.Window{Down: down, Up: up})
	ring := trace.New(64)
	m.AttachTrace(ring)
	th := sim.NewThread("t")
	th.AdvanceTo(down)

	const pg = mem.PageID(4) // primary = shard 0
	before := th.Now()
	if s := m.AccessPage(th, pg, false); s != 1 {
		t.Fatalf("served by shard %d, want replica shard 1", s)
	}
	if th.Now() <= before {
		t.Fatal("failover charged no latency")
	}
	if th.Now() >= up {
		t.Fatalf("failover stalled to the window end (now %v)", th.Now())
	}
	if st := m.ShardStats[0]; st.FailoverReads != 1 || st.Stalls != 0 {
		t.Fatalf("shard 0 stats = %+v, want exactly one failover read", st)
	}
	var spans int
	for _, e := range ring.Events() {
		if e.Kind == trace.KindFailover && e.Phase != trace.PhaseEnd {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("failover spans = %d, want 1", spans)
	}
	// With the primary back up the same access is served locally and free.
	th.AdvanceTo(up)
	before = th.Now()
	if s := m.AccessPage(th, pg, false); s != 0 || th.Now() != before {
		t.Fatalf("post-recovery access served by %d at +%v, want shard 0 for free", s, th.Now()-before)
	}
}

// A write during the outage queues a re-sync journal entry; the first
// access after recovery replays it — one page transfer on the replica
// class under a shard-recover span — before the shard serves traffic.
func TestWriteDuringOutageResyncsOnRecovery(t *testing.T) {
	const down, up = 10 * sim.Microsecond, 50 * sim.Microsecond
	m, _ := shardMachine(t, 4, 2, fault.Window{Down: down, Up: up})
	ring := trace.New(64)
	m.AttachTrace(ring)
	th := sim.NewThread("t")
	th.AdvanceTo(down)

	const pg = mem.PageID(8) // primary = shard 0
	if s := m.AccessPage(th, pg, true); s != 1 {
		t.Fatalf("write served by shard %d, want replica shard 1", s)
	}
	// Duplicate writes to the same page journal once.
	m.AccessPage(th, pg, true)
	replicaMsgs := m.Fabric.Stats(netmodel.ClassReplica).Msgs

	th.AdvanceTo(up)
	if s := m.AccessPage(th, pg, false); s != 0 {
		t.Fatalf("post-recovery access served by shard %d, want primary 0", s)
	}
	if st := m.ShardStats[0]; st.Recoveries != 1 || st.ResyncPages != 1 {
		t.Fatalf("shard 0 stats = %+v, want one recovery replaying one page", st)
	}
	if got := m.Fabric.Stats(netmodel.ClassReplica).Msgs - replicaMsgs; got != 1 {
		t.Fatalf("re-sync sent %d replica-class messages, want 1", got)
	}
	var spans int
	for _, e := range ring.Events() {
		if e.Kind == trace.KindShardRecover && e.Phase != trace.PhaseEnd {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("shard-recover spans = %d, want 1", spans)
	}
}

// Without replication there is no failover target: an access to a page on a
// down shard stalls to the shard's restart, like a whole-controller outage.
func TestAccessPageUnreplicatedStalls(t *testing.T) {
	const down, up = 10 * sim.Microsecond, 50 * sim.Microsecond
	m, _ := shardMachine(t, 4, 1, fault.Window{Down: down, Up: up})
	th := sim.NewThread("t")
	th.AdvanceTo(down)

	const pg = mem.PageID(4) // primary = shard 0
	if s := m.AccessPage(th, pg, false); s != 0 {
		t.Fatalf("served by shard %d, want the stalled primary 0", s)
	}
	if th.Now() != up {
		t.Fatalf("woke at %v, want exactly %v", th.Now(), up)
	}
	if st := m.ShardStats[0]; st.Stalls != 1 || st.FailoverReads != 0 {
		t.Fatalf("shard 0 stats = %+v, want exactly one stall", st)
	}
}

// Synchronous replication fans one pool write out to the page's R−1 other
// replica-set shards on the replica traffic class.
func TestReplicatePageFanOut(t *testing.T) {
	m, _ := shardMachine(t, 4, 3)
	th := sim.NewThread("t")
	const pg = mem.PageID(4) // replica set {0, 1, 2}
	m.ReplicatePage(th, pg, 0)
	if got := m.Fabric.Stats(netmodel.ClassReplica).Msgs; got != 2 {
		t.Fatalf("replica-class messages = %d, want 2 (R−1 copies)", got)
	}
	// The serving shard is skipped wherever it sits in the set.
	m.ReplicatePage(th, pg, 1)
	if got := m.Fabric.Stats(netmodel.ClassReplica).Msgs; got != 4 {
		t.Fatalf("replica-class messages = %d, want 4", got)
	}
	// Unreplicated machines never touch the replica class.
	m1, _ := shardMachine(t, 4, 1)
	m1.ReplicatePage(th, pg, 0)
	if got := m1.Fabric.Stats(netmodel.ClassReplica).Msgs; got != 0 {
		t.Fatalf("unreplicated machine sent %d replica-class messages", got)
	}
}

// A remote fault is one logical read even when its pool-miss leg recursively
// faults to the storage pool: during a shard outage the whole
// compute→pool→storage chain routes — and counts a failover — exactly once.
// Regression test: the storage leg used to re-route through AccessPage and
// double-count the failover.
func TestRemoteFaultWithStorageLegCountsOneFailover(t *testing.T) {
	m, plan := shardMachine(t, 4, 2)
	p := m.NewProcess()
	th := sim.NewThread("t")
	const pages = 8
	a := p.Space.AllocPages(pages*mem.PageSize, "v")
	env := p.NewEnv(th)
	for i := 0; i < pages; i++ {
		env.WriteI64(a+mem.Addr(i)*mem.PageSize, int64(i))
	}
	// A one-page cache forces the read below to remote-fault, and a one-page
	// pool guarantees the faulted page is not pool-resident, so the fault
	// recurses to the storage pool.
	p.ResizeCache(mem.PageSize)
	p.ResizePool(mem.PageSize)
	down := th.Now() + 10*sim.Microsecond
	plan.Pin(fault.Shard(0), fault.Window{Down: down, Up: down + 10*sim.Millisecond})
	th.AdvanceTo(down + sim.Microsecond)

	// Pick a page whose primary is the crashed shard 0.
	first, _ := mem.PageSpan(a, 1)
	off := (4 - int(first)%4) % 4
	pre := p.Stats().StorageInFault
	env.ReadI64(a + mem.Addr(off)*mem.PageSize)
	if got := p.Stats().StorageInFault - pre; got != 1 {
		t.Fatalf("storage in-faults = %d, want 1 (the read must take the pool-miss leg)", got)
	}
	if st := m.ShardStats[0]; st.FailoverReads != 1 {
		t.Fatalf("FailoverReads = %d, want 1: one logical read routes once", st.FailoverReads)
	}
}

func TestConfigShardValidation(t *testing.T) {
	cfg := BaseDDC(64 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas = 2, 3 // more copies than shards
	if _, err := NewMachine(cfg); err == nil {
		t.Fatal("Replicas > PoolShards accepted")
	}
	mono := Linux()
	mono.PoolShards = 4
	if _, err := NewMachine(mono); err == nil {
		t.Fatal("sharded monolithic config accepted")
	}
	ok := BaseDDC(64 * mem.PageSize)
	ok.PoolShards, ok.Replicas = 4, 2
	m := MustMachine(ok)
	if m.Cfg.Shards() != 4 || m.Cfg.EffReplicas() != 2 {
		t.Fatalf("Shards()=%d EffReplicas()=%d, want 4 and 2", m.Cfg.Shards(), m.Cfg.EffReplicas())
	}
}

// The earliest-usable walk chains through windows that heal into each
// other: shard 1 crashes, its compute→shard link is cut before the crash
// heals, and the shard→compute link is cut before that heals. Compute
// traffic waits out all three; a one-way push waits only for the shard and
// its own sending direction.
func TestUsableAtChainsHeals(t *testing.T) {
	m, plan := shardMachine(t, 4, 2)
	plan.Pin(fault.Shard(1), fault.Window{Down: us(10), Up: us(20)})
	plan.Pin(fault.Link(fault.EndpointCompute, 1), fault.Window{Down: us(15), Up: us(30)})
	plan.Pin(fault.Link(1, fault.EndpointCompute), fault.Window{Down: us(25), Up: us(40)})
	// Shard 2's partition heals back into a second crash of the shard the
	// walk had already passed: it must re-check the whole path.
	plan.Pin(fault.Shard(2), fault.Window{Down: us(10), Up: us(20)}, fault.Window{Down: us(28), Up: us(35)})
	plan.Pin(fault.Link(fault.EndpointCompute, 2), fault.Window{Down: us(15), Up: us(30)})

	cases := []struct {
		name string
		path []fault.Component
		at   sim.Time
		want sim.Time
	}{
		{"compute path from inside the crash", ComputePath(1), us(12), us(40)},
		{"compute path before any window", ComputePath(1), us(5), us(5)},
		{"compute path at the last heal", ComputePath(1), us(40), us(40)},
		{"compute→shard push ignores shard→compute", pushPath(fault.EndpointCompute, 1), us(12), us(30)},
		{"replica push over an uncut link", pushPath(0, 1), us(12), us(20)},
		{"partition healing into a second crash", ComputePath(2), us(12), us(35)},
	}
	for _, tc := range cases {
		if got := m.UsableAt(tc.path, tc.at); got != tc.want {
			t.Errorf("%s: UsableAt(%v) = %v, want %v", tc.name, tc.at, got, tc.want)
		}
		if got, want := m.usable(tc.path, tc.at), tc.want == tc.at; got != want {
			t.Errorf("%s: usable(%v) = %v, want %v", tc.name, tc.at, got, want)
		}
	}
}

// PoolShards is bounded by fault.MaxShards: past it two links would share
// one fault schedule.
func TestConfigPoolShardBound(t *testing.T) {
	cfg := BaseDDC(64 * mem.PageSize)
	cfg.PoolShards = fault.MaxShards
	if err := cfg.Validate(); err != nil {
		t.Fatalf("PoolShards = %d rejected: %v", cfg.PoolShards, err)
	}
	cfg.PoolShards = fault.MaxShards + 1
	if err := cfg.Validate(); err == nil {
		t.Fatalf("PoolShards = %d accepted", cfg.PoolShards)
	}
}

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
