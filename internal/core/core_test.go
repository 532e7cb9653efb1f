package core

import (
	"errors"
	"testing"

	"fmt"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// testProc builds a disaggregated process with the given compute cache size
// (in pages).
func testProc(cachePages int) (*ddc.Process, *Runtime) {
	m := ddc.MustMachine(ddc.BaseDDC(int64(cachePages) * mem.PageSize))
	p := m.NewProcess()
	return p, NewRuntime(p, 1)
}

func TestPushdownRunsFunctionOnMemoryData(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.Alloc(8*1000, "vec")
	// Fill via compute place (so some pages are cached and dirty).
	cenv := p.NewEnv(th)
	for i := 0; i < 1000; i++ {
		cenv.WriteI64(a+mem.Addr(i*8), int64(i))
	}
	var sum int64
	st, err := rt.Pushdown(th, func(env *ddc.Env) {
		for i := 0; i < 1000; i++ {
			sum += env.ReadI64(a + mem.Addr(i*8))
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(999 * 1000 / 2); sum != want {
		t.Fatalf("sum = %d, want %d (pushed code must see pre-push writes)", sum, want)
	}
	if st.Exec <= 0 || st.Total() <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.ResidentPages == 0 || st.RLERuns == 0 {
		t.Fatalf("resident list missing: %+v", st)
	}
	if rt.Stats().Calls != 1 {
		t.Fatalf("Calls = %d", rt.Stats().Calls)
	}
}

func TestPushdownReadsDirtyComputePagesCoherently(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.Alloc(8, "x")
	cenv := p.NewEnv(th)
	cenv.WriteI64(a, 41)
	cenv.WriteI64(a, 42) // dirty in compute cache, never flushed

	var got int64
	st, err := rt.Pushdown(th, func(env *ddc.Env) {
		got = env.ReadI64(a)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("pushed read = %d, want 42", got)
	}
	// The compute pool held the page writable, so Figure 8 excluded it from
	// the temporary context; reading it required a coherence round trip
	// that carried the dirty data.
	if st.MemoryFaults == 0 || st.CoherenceMsgs == 0 {
		t.Fatalf("expected coherence traffic, got %+v", st)
	}
	if p.M.Fabric.Stats(netmodel.ClassCoherence).Msgs == 0 {
		t.Fatal("no coherence messages on the fabric")
	}
}

func TestComputeSeesPushedWrites(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.Alloc(8, "x")
	cenv := p.NewEnv(th)
	cenv.WriteI64(a, 1) // resident + writable in compute

	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.WriteI64(a, 2)
	}, Options{}); err != nil {
		t.Fatal(err)
	}
	// The pushed write invalidated the compute copy; the re-read faults and
	// sees the new value.
	faultsBefore := p.Stats().RemoteFaults
	if got := cenv.ReadI64(a); got != 2 {
		t.Fatalf("read-after-push = %d, want 2", got)
	}
	if p.Stats().RemoteFaults <= faultsBefore {
		t.Fatal("compute read after pushed write should have re-faulted")
	}
}

func TestPushdownFasterThanComputeForRandomAccess(t *testing.T) {
	const size = 2 << 20
	randomSum := func(env *ddc.Env, base mem.Addr) int64 {
		var s int64
		x := uint64(7)
		for i := 0; i < 30000; i++ {
			x = x*6364136223846793005 + 1
			s += env.ReadI64(base + mem.Addr(x%(size/8))*8)
		}
		return s
	}

	p, rt := testProc(32) // cache ≈ 6% of working set
	a := p.Space.AllocPages(size, "buf")

	thBase := sim.NewThread("base")
	baseEnv := p.NewEnv(thBase)
	randomSum(baseEnv, a)
	baseTime := thBase.Now()

	thPush := sim.NewThread("push")
	st, err := rt.Pushdown(thPush, func(env *ddc.Env) {
		randomSum(env, a)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(baseTime) / float64(st.Total())
	if speedup < 5 {
		t.Fatalf("pushdown speedup = %.1f×, want ≳5× for memory-bound work", speedup)
	}
}

func TestSWMRInvariantUnderInterleavedAccess(t *testing.T) {
	// A compute thread and a pushed thread hammer an overlapping page set;
	// after every access the SWMR invariant must hold for every page the
	// protocol has touched.
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	const pages = 16
	a := p.Space.AllocPages(pages*mem.PageSize, "shared")

	check := func(where string) {
		if rt.ps == nil {
			return
		}
		for pg := mem.PageOf(a); pg <= mem.PageOf(a+pages*mem.PageSize-1); pg++ {
			tp, tw := rt.ps.temp.peek(pg)
			cw, _, resident := p.Cache.Lookup(pg)
			if tp && tw && resident {
				t.Fatalf("%s: page %d writable in temp context but resident in compute", where, pg)
			}
			if resident && cw && tp {
				t.Fatalf("%s: page %d writable in compute but present in temp context", where, pg)
			}
		}
	}

	s := sim.NewScheduler()
	s.SetQuantum(sim.Microsecond)
	s.Spawn("compute", 0, func(th *sim.Thread) {
		env := p.NewEnv(th)
		x := uint64(3)
		for i := 0; i < 3000; i++ {
			x = x*2862933555777941757 + 3037000493
			addr := a + mem.Addr(x%(pages*mem.PageSize/8))*8
			if x%3 == 0 {
				env.WriteI64(addr, int64(i))
			} else {
				env.ReadI64(addr)
			}
			check("compute")
		}
	})
	s.Spawn("pusher", 0, func(th *sim.Thread) {
		_, err := rt.Pushdown(th, func(env *ddc.Env) {
			x := uint64(5)
			for i := 0; i < 3000; i++ {
				x = x*6364136223846793005 + 1
				addr := a + mem.Addr(x%(pages*mem.PageSize/8))*8
				if x%3 == 0 {
					env.WriteI64(addr, -int64(i))
				} else {
					env.ReadI64(addr)
				}
				check("memory")
			}
		}, Options{})
		if err != nil {
			t.Errorf("pushdown: %v", err)
		}
	})
	s.Run()
	if rt.Stats().CoherenceMsgs == 0 {
		t.Fatal("contended run produced no coherence messages")
	}
}

func TestConcurrentPushdownsSerializeOnOneContext(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.AllocPages(4*mem.PageSize, "buf")

	var queued [2]sim.Time
	s := sim.NewScheduler()
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("caller", 0, func(th *sim.Thread) {
			st, err := rt.Pushdown(th, func(env *ddc.Env) {
				for j := 0; j < 2000; j++ {
					env.ReadI64(a + mem.Addr(j%512)*8)
				}
				env.Compute(2_000_000) // ~1 ms of CPU
			}, Options{})
			if err != nil {
				t.Errorf("pushdown %d: %v", i, err)
			}
			queued[i] = st.Queue
		})
	}
	s.Run()
	if queued[0] == 0 && queued[1] == 0 {
		t.Fatal("one of the two concurrent pushdowns should have queued")
	}
}

func TestQueuedPushdownCancelsAfterTimeout(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)

	var errSecond error
	var wake sim.Time
	s := sim.NewScheduler()
	s.Spawn("long", 0, func(th *sim.Thread) {
		_, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.Compute(21_000_000) // ~10 ms
		}, Options{})
		if err != nil {
			t.Errorf("long pushdown: %v", err)
		}
	})
	s.Spawn("short", 0, func(th *sim.Thread) {
		th.Advance(10 * sim.Microsecond) // let the long one start first
		start := th.Now()
		_, errSecond = rt.Pushdown(th, func(env *ddc.Env) {}, Options{
			Timeout: sim.Millisecond,
		})
		wake = th.Now() - start
	})
	s.Run()
	if !errors.Is(errSecond, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", errSecond)
	}
	if wake > 2*sim.Millisecond {
		t.Fatalf("cancelled caller resumed after %v, want ≈ the 1 ms timeout", wake)
	}
	if rt.Stats().Cancelled != 1 {
		t.Fatalf("Cancelled = %d", rt.Stats().Cancelled)
	}
}

func TestRunningPushdownDeclinesCancel(t *testing.T) {
	// A timeout on a request that is already running is declined; the
	// caller waits for completion (§3.2).
	_, rt := testProc(16)
	th := sim.NewThread("caller")
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.Compute(21_000_000) // ~10 ms, far beyond the timeout
	}, Options{Timeout: sim.Millisecond})
	if err != nil {
		t.Fatalf("running pushdown must complete, got %v", err)
	}
}

func TestExecLimitKillsBuggyFunction(t *testing.T) {
	_, rt := testProc(16)
	th := sim.NewThread("caller")
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.Compute(210_000_000) // ~100 ms
	}, Options{ExecLimit: sim.Millisecond})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	if rt.Stats().Killed != 1 {
		t.Fatalf("Killed = %d", rt.Stats().Killed)
	}
}

func TestRemotePanicPropagates(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		panic("segfault in pushed code")
	}, Options{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Value != "segfault in pushed code" {
		t.Fatalf("value = %v", re.Value)
	}
	// The runtime must recover: a subsequent pushdown works.
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {}, Options{}); err != nil {
		t.Fatalf("pushdown after panic: %v", err)
	}
	_ = p
}

func TestMemoryPoolFailureIsKernelPanic(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	rt.SetMemoryPoolDown(true)
	if rt.Heartbeat() {
		t.Fatal("heartbeat should fail")
	}
	_, err := rt.Pushdown(th, func(env *ddc.Env) {}, Options{})
	if !errors.Is(err, ErrMemoryPoolDown) {
		t.Fatalf("err = %v, want ErrMemoryPoolDown", err)
	}
	rt.SetMemoryPoolDown(false)
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {}, Options{}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	_ = p
}

func TestPushdownOnMonolithicMachineRejected(t *testing.T) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	_, err := rt.Pushdown(sim.NewThread("t"), func(env *ddc.Env) {}, Options{})
	if !errors.Is(err, ErrNotDisaggregated) {
		t.Fatalf("err = %v", err)
	}
}

func TestEagerSyncCostsMoreThanOnDemand(t *testing.T) {
	run := func(flags Flags) Stats {
		p, rt := testProc(256)
		th := sim.NewThread("caller")
		a := p.Space.AllocPages(256*mem.PageSize, "ws")
		cenv := p.NewEnv(th)
		for pg := 0; pg < 200; pg++ { // warm + dirty most of the cache
			cenv.WriteI64(a+mem.Addr(pg)*mem.PageSize, int64(pg))
		}
		st, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.ReadI64(a) // touch a little
		}, Options{Flags: flags})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	eager := run(FlagEagerSync)
	onDemand := run(FlagDefault)
	if eager.Overhead() < 5*onDemand.Overhead() {
		t.Fatalf("eager overhead %v should dwarf on-demand %v (Figure 20)",
			eager.Overhead(), onDemand.Overhead())
	}
	if eager.PreSync <= onDemand.PreSync || eager.PostSync <= onDemand.PostSync {
		t.Fatalf("eager pre/post must dominate: %+v vs %+v", eager, onDemand)
	}
}

func TestPSOKeepsReadOnlyCopies(t *testing.T) {
	countRefaults := func(flags Flags) int64 {
		p, rt := testProc(16)
		th := sim.NewThread("caller")
		a := p.Space.Alloc(8, "x")
		cenv := p.NewEnv(th)
		cenv.ReadI64(a) // resident read-only in compute
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.WriteI64(a, 9) // memory pool wants W while compute holds R
		}, Options{Flags: flags}); err != nil {
			t.Fatal(err)
		}
		before := p.Stats().RemoteFaults
		cenv.ReadI64(a)
		return p.Stats().RemoteFaults - before
	}
	if n := countRefaults(FlagDefault); n == 0 {
		t.Fatal("default write-invalidate must evict the compute copy")
	}
	if n := countRefaults(FlagPSO); n != 0 {
		t.Fatalf("PSO should keep a read-only compute copy, got %d refaults", n)
	}
}

func TestSyncMemFlushesDirtyRanges(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(4*mem.PageSize, "buf")
	cenv := p.NewEnv(th)
	cenv.WriteI64(a, 1)
	cenv.WriteI64(a+mem.PageSize, 2)
	n := rt.SyncMem(th, []Range{{Base: a, Size: 2 * mem.PageSize}})
	if n != 2 {
		t.Fatalf("SyncMem flushed %d pages, want 2", n)
	}
	if p.M.Fabric.Stats(netmodel.ClassSync).Msgs != 1 {
		t.Fatal("SyncMem must batch into one transfer")
	}
	// Second call: nothing dirty.
	if n := rt.SyncMem(th, []Range{{Base: a, Size: 2 * mem.PageSize}}); n != 0 {
		t.Fatalf("second SyncMem flushed %d", n)
	}
}

func TestNoCoherenceModeSendsNoCoherenceTraffic(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.Alloc(8, "x")
	cenv := p.NewEnv(th)
	cenv.WriteI64(a, 1)
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		for i := 0; i < 100; i++ {
			env.WriteI64(a, int64(i))
		}
	}, Options{Flags: FlagNoCoherence}); err != nil {
		t.Fatal(err)
	}
	if got := p.M.Fabric.Stats(netmodel.ClassCoherence).Msgs; got != 0 {
		t.Fatalf("coherence msgs = %d, want 0 under FlagNoCoherence", got)
	}
}

func TestContentionTiebreakFavorsMemoryPool(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.Alloc(8, "hot")

	s := sim.NewScheduler()
	s.SetQuantum(sim.Microsecond)
	s.Spawn("compute", 0, func(th *sim.Thread) {
		env := p.NewEnv(th)
		for i := 0; i < 500; i++ {
			env.WriteI64(a, int64(i))
			env.Compute(2100) // 1 µs think time
		}
	})
	s.Spawn("pusher", 0, func(th *sim.Thread) {
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			for i := 0; i < 500; i++ {
				env.WriteI64(a, -int64(i))
				env.Compute(2100)
			}
		}, Options{}); err != nil {
			t.Errorf("pushdown: %v", err)
		}
	})
	s.Run()
	if rt.Stats().Contentions == 0 {
		t.Fatal("hot-page write ping-pong should trigger the tiebreak")
	}
}

func TestMigrateProcessClearsCache(t *testing.T) {
	p, rt := testProc(64)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(32*mem.PageSize, "ws")
	cenv := p.NewEnv(th)
	for pg := 0; pg < 32; pg++ {
		cenv.WriteI64(a+mem.Addr(pg)*mem.PageSize, int64(pg))
	}
	if p.Cache.Len() == 0 {
		t.Fatal("setup: cache should be warm")
	}
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.ReadI64(a)
	}, Options{Flags: FlagMigrateProcess}); err != nil {
		t.Fatal(err)
	}
	if p.Cache.Len() != 0 {
		t.Fatalf("cache has %d pages after process migration, want 0", p.Cache.Len())
	}
}

func TestEvictRangesFlushesOnlyGivenRanges(t *testing.T) {
	p, rt := testProc(64)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(8*mem.PageSize, "mine")
	b := p.Space.AllocPages(8*mem.PageSize, "other")
	cenv := p.NewEnv(th)
	for pg := 0; pg < 8; pg++ {
		cenv.WriteI64(a+mem.Addr(pg)*mem.PageSize, 1)
		cenv.WriteI64(b+mem.Addr(pg)*mem.PageSize, 2)
	}
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.ReadI64(a)
	}, Options{
		Flags:       FlagEvictRanges,
		EvictRanges: []Range{{Base: a, Size: 8 * mem.PageSize}},
	}); err != nil {
		t.Fatal(err)
	}
	if p.Cache.Contains(mem.PageOf(a)) {
		t.Fatal("evicted range still resident")
	}
	if !p.Cache.Contains(mem.PageOf(b)) {
		t.Fatal("unrelated range was evicted")
	}
}

func TestStatsBreakdownComponentsSumToTotal(t *testing.T) {
	p, rt := testProc(32)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(16*mem.PageSize, "ws")
	cenv := p.NewEnv(th)
	for pg := 0; pg < 16; pg++ {
		cenv.WriteI64(a+mem.Addr(pg)*mem.PageSize, int64(pg))
	}
	start := th.Now()
	st, err := rt.Pushdown(th, func(env *ddc.Env) {
		for pg := 0; pg < 16; pg++ {
			env.ReadI64(a + mem.Addr(pg)*mem.PageSize)
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Total(), th.Now()-start; got != want {
		t.Fatalf("Total() = %v, wall = %v", got, want)
	}
	if st.Overhead() >= st.Total() && st.OnlineSync == 0 {
		t.Fatalf("Overhead() = %v should exclude pure exec", st.Overhead())
	}
	if st.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestPushdownOrLocalFallsBack(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.Alloc(8, "x")

	var ranLocally bool
	s := sim.NewScheduler()
	s.Spawn("long", 0, func(th *sim.Thread) {
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.Compute(21_000_000) // ~10 ms
		}, Options{}); err != nil {
			t.Errorf("long: %v", err)
		}
	})
	s.Spawn("short", 0, func(th *sim.Thread) {
		th.Advance(10 * sim.Microsecond)
		_, pushed, err := rt.PushdownOrLocal(th, func(env *ddc.Env) {
			env.WriteI64(a, 7)
			ranLocally = true
		}, Options{Timeout: sim.Millisecond})
		if err != nil {
			t.Errorf("short: %v", err)
		}
		if pushed {
			t.Error("expected local fallback, not a pushdown")
		}
	})
	s.Run()
	if !ranLocally {
		t.Fatal("fallback did not execute")
	}
	if got := p.Space.ReadI64(a); got != 7 {
		t.Fatalf("fallback write lost: %d", got)
	}
}

func TestPushdownOrLocalPushesWhenFree(t *testing.T) {
	_, rt := testProc(16)
	th := sim.NewThread("t")
	_, pushed, err := rt.PushdownOrLocal(th, func(env *ddc.Env) {}, Options{Timeout: sim.Millisecond})
	if err != nil || !pushed {
		t.Fatalf("pushed=%v err=%v", pushed, err)
	}
}

// TestDeterministicReplay: the same contended multi-thread run must produce
// bit-identical timings and counters across executions.
func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (sim.Time, RuntimeStats) {
		m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
		p := m.NewProcess()
		rt := NewRuntime(p, 2)
		a := p.Space.AllocPages(64*mem.PageSize, "shared")
		s := sim.NewScheduler()
		s.SetQuantum(sim.Microsecond)
		for i := 0; i < 3; i++ {
			i := i
			s.Spawn("t", 0, func(th *sim.Thread) {
				if i == 0 {
					env := p.NewEnv(th)
					x := uint64(11)
					for j := 0; j < 2000; j++ {
						x = x*6364136223846793005 + 1
						env.WriteI64(a+mem.Addr(x%(64*512))*8, int64(j))
					}
					return
				}
				_, err := rt.Pushdown(th, func(env *ddc.Env) {
					x := uint64(13 * i)
					for j := 0; j < 2000; j++ {
						x = x*2862933555777941757 + 3037000493
						env.ReadI64(a + mem.Addr(x%(64*512))*8)
					}
				}, Options{})
				if err != nil {
					t.Errorf("pushdown: %v", err)
				}
			})
		}
		return s.Run(), rt.Stats()
	}
	t1, s1 := runOnce()
	t2, s2 := runOnce()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("replay diverged: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

// TestConcurrentPushdownsShareTempTable: two overlapping pushdowns of the
// same process share the coherence state (§3.2: "these memory-side threads
// share the same page table and context").
func TestConcurrentPushdownsShareTempTable(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 2)
	a := p.Space.Alloc(8, "x")
	th0 := sim.NewThread("warm")
	p.NewEnv(th0).WriteI64(a, 1) // dirty in compute

	sawShared := false
	s := sim.NewScheduler()
	for i := 0; i < 2; i++ {
		s.Spawn("pusher", 0, func(th *sim.Thread) {
			_, err := rt.Pushdown(th, func(env *ddc.Env) {
				env.ReadI64(a)
				env.Compute(2_000_000)
				if rt.ps != nil && rt.ps.refs == 2 {
					sawShared = true
				}
			}, Options{})
			if err != nil {
				t.Errorf("pushdown: %v", err)
			}
		})
	}
	s.Run()
	if !sawShared {
		t.Fatal("overlapping pushdowns never shared the state")
	}
	if rt.ps != nil {
		t.Fatal("shared state must be recycled after the last pushdown")
	}
	if p.Hooks() != nil {
		t.Fatal("hooks must be uninstalled after the last pushdown")
	}
}

func TestPushdownEmitsTraceEvents(t *testing.T) {
	p, rt := testProc(16)
	p.M.Trace = trace.New(64)
	th := sim.NewThread("caller")
	a := p.Space.Alloc(8, "x")
	p.NewEnv(th).WriteI64(a, 1)
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.ReadI64(a) // dirty compute page: coherence event
	}, Options{}); err != nil {
		t.Fatal(err)
	}
	counts := p.M.Trace.CountByKind()
	if counts[trace.KindPushdownStart] != 1 || counts[trace.KindPushdownEnd] != 1 {
		t.Fatalf("pushdown events missing: %v", counts)
	}
	if counts[trace.KindCoherence] == 0 {
		t.Fatalf("coherence event missing: %v", counts)
	}
}

// TestComputeUpgradeDuringPushdown exercises the (R,R) → (W,∅) transition:
// the compute pool holds a page read-only, a pushdown is active, and the
// compute thread writes — an explicit coherence round trip must invalidate
// the temporary context's copy.
func TestComputeUpgradeDuringPushdown(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.AllocPages(mem.PageSize, "x")

	s := sim.NewScheduler()
	s.SetQuantum(sim.Microsecond)
	s.Spawn("compute", 0, func(th *sim.Thread) {
		env := p.NewEnv(th)
		env.ReadI64(a) // resident read-only
		th.Advance(50 * sim.Microsecond)
		env.WriteI64(a, 1) // upgrade while the pushdown runs
	})
	s.Spawn("pusher", 0, func(th *sim.Thread) {
		th.Advance(10 * sim.Microsecond)
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			for i := 0; i < 200; i++ {
				env.ReadI64(a)
				env.Compute(2100) // ~1 µs per round: stay alive past the write
			}
		}, Options{}); err != nil {
			t.Errorf("pushdown: %v", err)
		}
	})
	s.Run()
	if rt.Stats().Upgrades == 0 {
		t.Fatal("compute write-upgrade during pushdown never hit the coherence path")
	}
	if m.Fabric.Stats(netmodel.ClassCoherence).Msgs == 0 {
		t.Fatal("upgrade should have produced coherence messages")
	}
}

// TestPushedDirtyBitsMergeIntoPool: pages dirtied by the pushed function are
// merged as dirty into the (bounded) memory pool, so a later pool eviction
// writes them to storage.
func TestPushedDirtyBitsMergeIntoPool(t *testing.T) {
	cfg := ddc.BaseDDC(2 * mem.PageSize)
	cfg.MemoryPoolBytes = 4 * mem.PageSize
	m := ddc.MustMachine(cfg)
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.AllocPages(16*mem.PageSize, "buf")
	th := sim.NewThread("t")
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		env.WriteI64(a, 99) // dirties page 0 in the pool
	}, Options{}); err != nil {
		t.Fatal(err)
	}
	writesBefore := m.SSD.Stats().Writes
	// Walk enough other pages through the pool to evict page 0.
	env := p.NewEnv(th)
	for pg := 1; pg < 16; pg++ {
		env.ReadI64(a + mem.Addr(pg)*mem.PageSize)
	}
	if m.SSD.Stats().Writes <= writesBefore {
		t.Fatal("evicting a pushed-dirty page must write it to storage")
	}
}

// --- Failure handling and recovery (robustness PR) ---

// sumFunc returns a Func summing n int64s starting at a, writing the result
// into *out. It works in either pool, so fallback paths compute the same
// answer.
func sumFunc(a mem.Addr, n int, out *int64) Func {
	return func(env *ddc.Env) {
		var s int64
		for i := 0; i < n; i++ {
			s += env.ReadI64(a + mem.Addr(i*8))
		}
		*out = s
	}
}

func fillVec(p *ddc.Process, th *sim.Thread, n int) mem.Addr {
	a := p.Space.Alloc(int64(n)*8, "vec")
	env := p.NewEnv(th)
	for i := 0; i < n; i++ {
		env.WriteI64(a+mem.Addr(i*8), int64(i))
	}
	return a
}

func countKind(r *trace.Ring, k trace.Kind) int {
	n := 0
	for _, ev := range r.Events() {
		if ev.Kind == k && ev.Phase != trace.PhaseEnd {
			n++
		}
	}
	return n
}

// A pushdown issued while the memory pool is down (manual, indefinite
// outage) must complete via the RetryThenLocal fallback: pushed=false,
// nil error, a fallback-local trace event — not a bare ErrMemoryPoolDown.
func TestPushdownWithPolicyFallsBackWhenPoolDown(t *testing.T) {
	p, rt := testProc(16)
	ring := trace.New(128)
	p.M.AttachTrace(ring)
	th := sim.NewThread("caller")
	a := fillVec(p, th, 1000)

	rt.SetMemoryPoolDown(true)
	var sum int64
	pol := RetryThenLocal{MaxRetries: 2, Backoff: sim.Microsecond}
	_, pushed, err := rt.PushdownWithPolicy(th, sumFunc(a, 1000, &sum), Options{}, pol)
	if err != nil {
		t.Fatalf("PushdownWithPolicy: %v", err)
	}
	if pushed {
		t.Fatalf("pushed = true, want false (pool is down)")
	}
	if want := int64(1000 * 999 / 2); sum != want {
		t.Fatalf("fallback sum = %d, want %d", sum, want)
	}
	st := rt.Stats()
	if st.LocalFallbacks != 1 {
		t.Fatalf("LocalFallbacks = %d, want 1", st.LocalFallbacks)
	}
	if st.Retries != int64(pol.MaxRetries) {
		t.Fatalf("Retries = %d, want %d", st.Retries, pol.MaxRetries)
	}
	if st.PoolDownObserved == 0 {
		t.Fatalf("PoolDownObserved = 0, want > 0")
	}
	if countKind(ring, trace.KindFallbackLocal) != 1 {
		t.Fatalf("want exactly one fallback-local trace event, ring: %v", ring.Events())
	}
	if countKind(ring, trace.KindPoolCrash) != 1 {
		t.Fatalf("want one pool-crash trace event (first observation edge)")
	}
}

// A context-crashed pushdown is re-run once; if the rerun crashes too the
// policy degrades to local execution rather than burning retries.
func TestContextCrashRerunOnceThenLocal(t *testing.T) {
	p, rt := testProc(16)
	ring := trace.New(128)
	p.M.AttachTrace(ring)
	prof := fault.Profile{Name: "always-crash-ctx", CtxCrashProb: 1}
	p.M.AttachFault(fault.NewPlan(prof, 7))
	th := sim.NewThread("caller")
	a := fillVec(p, th, 500)

	var sum int64
	_, pushed, err := rt.PushdownWithPolicy(th, sumFunc(a, 500, &sum), Options{}, DefaultRetryThenLocal())
	if err != nil {
		t.Fatalf("PushdownWithPolicy: %v", err)
	}
	if pushed {
		t.Fatalf("pushed = true, want false (every context crashes)")
	}
	if want := int64(500 * 499 / 2); sum != want {
		t.Fatalf("fallback sum = %d, want %d", sum, want)
	}
	st := rt.Stats()
	if st.CtxCrashes != 2 {
		t.Fatalf("CtxCrashes = %d, want 2 (original + one rerun)", st.CtxCrashes)
	}
	if st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (the single rerun)", st.Retries)
	}
	if st.LocalFallbacks != 1 {
		t.Fatalf("LocalFallbacks = %d, want 1", st.LocalFallbacks)
	}
	if got := p.M.Fault.Counters().CtxCrashes; got != 2 {
		t.Fatalf("plan CtxCrashes = %d, want 2", got)
	}
}

// Pushdown surfaces a bare ErrContextCrashed (with fn not run) when called
// without a policy.
func TestPushdownReturnsErrContextCrashed(t *testing.T) {
	p, rt := testProc(16)
	p.M.AttachFault(fault.NewPlan(fault.Profile{Name: "cc", CtxCrashProb: 1}, 1))
	th := sim.NewThread("caller")
	a := fillVec(p, th, 10)

	ran := false
	_, err := rt.Pushdown(th, func(env *ddc.Env) { ran = true; _ = env.ReadI64(a) }, Options{})
	if !errors.Is(err, ErrContextCrashed) {
		t.Fatalf("err = %v, want ErrContextCrashed", err)
	}
	if ran {
		t.Fatalf("fn ran despite context crash (must not commit)")
	}
	if !Recoverable(err) {
		t.Fatalf("ErrContextCrashed must be Recoverable")
	}
}

// A pushdown issued inside a scheduled controller outage retries after the
// restart time and ultimately runs in the memory pool (pushed=true), with
// pool-crash / pool-recover edges in the trace.
func TestPolicyRetriesThroughScheduledOutage(t *testing.T) {
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	plan := fault.NewPlan(fault.CrashyPool(), 42)
	p.M.AttachFault(plan)
	th := sim.NewThread("caller")
	a := fillVec(p, th, 200)

	// Probe forward for the first crash window and park the caller inside it.
	var inWindow sim.Time
	for ts := sim.Time(0); ts < 10*sim.Second; ts += 100 * sim.Microsecond {
		if _, down := plan.DownAt(fault.Pool(), ts); down {
			inWindow = ts
			break
		}
	}
	if inWindow == 0 {
		t.Fatalf("no crash window found in 10s of virtual time")
	}
	th.AdvanceTo(inWindow)

	var sum int64
	_, pushed, err := rt.PushdownWithPolicy(th, sumFunc(a, 200, &sum), Options{}, DefaultRetryThenLocal())
	if err != nil {
		t.Fatalf("PushdownWithPolicy: %v", err)
	}
	if !pushed {
		t.Fatalf("pushed = false, want true (policy should wait out the outage)")
	}
	if want := int64(200 * 199 / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	st := rt.Stats()
	if st.Retries == 0 {
		t.Fatalf("Retries = 0, want >= 1")
	}
	if st.PoolDownObserved == 0 {
		t.Fatalf("PoolDownObserved = 0, want >= 1")
	}
	if countKind(ring, trace.KindPoolCrash) == 0 || countKind(ring, trace.KindPoolRecover) == 0 {
		t.Fatalf("want pool-crash and pool-recover trace edges, ring: %v", ring.Events())
	}
	// The heartbeat must agree with the plan at both probe points.
	if rt.HeartbeatAt(inWindow) {
		t.Fatalf("HeartbeatAt(inWindow) = true, want false")
	}
	if !rt.HeartbeatAt(th.Now()) {
		t.Fatalf("HeartbeatAt(now) = false after successful pushdown, want true")
	}
}

// PushdownOrLocal must match cancellation via errors.Is, so wrapped
// cancellation errors still trigger the local fallback.
func TestRecoverableClassification(t *testing.T) {
	for _, err := range []error{ErrCancelled, ErrMemoryPoolDown, ErrContextCrashed} {
		if !Recoverable(err) {
			t.Errorf("Recoverable(%v) = false, want true", err)
		}
		if !Recoverable(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("Recoverable(wrapped %v) = false, want true", err)
		}
	}
	for _, err := range []error{ErrKilled, ErrNotDisaggregated, &RemoteError{Value: "x"}} {
		if Recoverable(err) {
			t.Errorf("Recoverable(%v) = true, want false", err)
		}
	}
}
