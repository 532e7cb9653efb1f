package core

import (
	"errors"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Boundary-condition tests for pool-outage windows, pinned to exact
// virtual-time instants with Plan.Pin. Windows are half-open
// [Down, Up): the controller is down at Down, and back at exactly Up.

// poolWindows returns a plan whose only faults are the given pool outages.
func poolWindows(ws ...fault.Window) *fault.Plan {
	p := fault.NewPlan(fault.Profile{Name: "windows"}, 0)
	p.Pin(fault.Pool(), ws...)
	return p
}

// A paging stall that waits out an outage wakes at exactly the window's Up
// instant, and the plan reports the pool up at that same instant — the
// wake-up never observes a still-down controller.
func TestPoolWindowEndsExactlyAtWakeup(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	plan := poolWindows(fault.Window{Down: down, Up: up})
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	m.AttachFault(plan)

	th := sim.NewThread("t")
	th.AdvanceTo(150 * sim.Microsecond)
	if !m.WaitPoolUp(th) {
		t.Fatal("WaitPoolUp inside the window reported no stall")
	}
	if th.Now() != up {
		t.Fatalf("woke at %v, want exactly %v", th.Now(), up)
	}
	if _, stillDown := plan.DownAt(fault.Pool(), th.Now()); stillDown {
		t.Fatal("DownAt(Pool(), Up) reports down: the wake-up instant must observe the pool up")
	}
	if m.PoolStalls != 1 {
		t.Fatalf("PoolStalls = %d, want 1", m.PoolStalls)
	}
	// A second wait at exactly Up is a no-op.
	if m.WaitPoolUp(th) || th.Now() != up {
		t.Fatalf("WaitPoolUp at the Up instant stalled (now %v)", th.Now())
	}
}

// The heartbeat flips exactly at the window edges: down at Down, down at
// Up-1ns, up at exactly Up.
func TestHeartbeatEdgesAtWindowBoundaries(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	m.AttachFault(poolWindows(fault.Window{Down: down, Up: up}))
	rt := NewRuntime(m.NewProcess(), 1)

	for _, tc := range []struct {
		at sim.Time
		up bool
	}{
		{down - 1, true},
		{down, false},
		{up - 1, false},
		{up, true},
	} {
		if got := rt.HeartbeatAt(tc.at); got != tc.up {
			t.Fatalf("HeartbeatAt(%v) = %v, want %v", tc.at, got, tc.up)
		}
	}
}

// A pushdown issued mid-outage fails, the policy waits for the scheduled
// restart, and the retry lands at exactly the recovery instant and
// succeeds. The trace carries exactly one pool-crash and one pool-recover
// edge, the latter stamped at Up.
func TestRetryAtExactRecoveryInstant(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 300 * sim.Microsecond
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(poolWindows(fault.Window{Down: down, Up: up}))

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(150 * sim.Microsecond)
	var out int64
	_, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 64, &out), Options{}, DefaultRetryThenLocal())
	if err != nil || !ran {
		t.Fatalf("policy: ran=%v err=%v, want a successful retry after the restart", ran, err)
	}
	if out != 64*63/2 {
		t.Fatalf("sum = %d, want %d", out, 64*63/2)
	}
	if rs := rt.Stats(); rs.Retries != 1 || rs.PoolDownObserved == 0 {
		t.Fatalf("Retries=%d PoolDownObserved=%d, want 1 retry after observing the outage",
			rs.Retries, rs.PoolDownObserved)
	}
	var crashes, recovers int
	var recoverAtTs sim.Time
	for _, e := range ring.Events() {
		switch e.Kind {
		case trace.KindPoolCrash:
			crashes++
		case trace.KindPoolRecover:
			recovers++
			recoverAtTs = e.At
		}
	}
	if crashes != 1 || recovers != 1 {
		t.Fatalf("pool-crash=%d pool-recover=%d, want exactly one of each", crashes, recovers)
	}
	if recoverAtTs != up {
		t.Fatalf("pool-recover stamped at %v, want exactly %v (the retry instant)", recoverAtTs, up)
	}
}

// A bare pushdown issued at exactly the recovery instant succeeds without
// ever observing the outage — no pool-crash edge, no down observation.
func TestPushdownAtExactRecoveryInstant(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 300 * sim.Microsecond
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(poolWindows(fault.Window{Down: down, Up: up}))

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(up)
	var out int64
	if _, err := rt.Pushdown(th, sumFunc(a, 64, &out), Options{}); err != nil {
		t.Fatalf("pushdown at the recovery instant: %v", err)
	}
	if n := countKind(ring, trace.KindPoolCrash); n != 0 {
		t.Fatalf("pool-crash events = %d, want 0 (the outage was never observed)", n)
	}
	if rs := rt.Stats(); rs.PoolDownObserved != 0 {
		t.Fatalf("PoolDownObserved = %d, want 0", rs.PoolDownObserved)
	}
	// One nanosecond earlier the same call fails.
	p2, rt2 := testProc(16)
	p2.M.AttachFault(poolWindows(fault.Window{Down: down, Up: up}))
	th2 := sim.NewThread("t")
	a2 := fillVec(p2, th2, 64)
	th2.AdvanceTo(up - 1)
	if _, err := rt2.Pushdown(th2, sumFunc(a2, 64, &out), Options{}); !errors.Is(err, ErrMemoryPoolDown) {
		t.Fatalf("pushdown 1ns before recovery: err = %v, want ErrMemoryPoolDown", err)
	}
}

// WaitPoolUp with no fault plan attached never stalls and never advances
// the clock.
func TestWaitPoolUpNilPlan(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	th := sim.NewThread("t")
	th.AdvanceTo(150 * sim.Microsecond)
	if m.WaitPoolUp(th) {
		t.Fatal("WaitPoolUp stalled with no fault plan")
	}
	if th.Now() != 150*sim.Microsecond {
		t.Fatalf("WaitPoolUp advanced the clock to %v with no fault plan", th.Now())
	}
	if m.PoolStalls != 0 {
		t.Fatalf("PoolStalls = %d, want 0", m.PoolStalls)
	}
}

// A query at exactly the window's Up instant observes the pool up: no
// stall, no clock movement (half-open windows).
func TestWaitPoolUpAtExactUpBoundary(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	m.AttachFault(poolWindows(fault.Window{Down: down, Up: up}))
	th := sim.NewThread("t")
	th.AdvanceTo(up)
	if m.WaitPoolUp(th) {
		t.Fatal("WaitPoolUp stalled at exactly Up")
	}
	if th.Now() != up || m.PoolStalls != 0 {
		t.Fatalf("now=%v PoolStalls=%d, want %v and 0", th.Now(), m.PoolStalls, up)
	}
}

// Back-to-back windows [100,200) + [200,300): a waiter entering the first
// window wakes at its Up instant, finds the second window already begun,
// and keeps waiting — one WaitPoolUp call rides both windows through to
// 300µs and counts as a single stall.
func TestWaitPoolUpAdjacentWindows(t *testing.T) {
	const d1, u1 = 100 * sim.Microsecond, 200 * sim.Microsecond
	const d2, u2 = 200 * sim.Microsecond, 300 * sim.Microsecond
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	m.AttachFault(poolWindows(fault.Window{Down: d1, Up: u1}, fault.Window{Down: d2, Up: u2}))
	th := sim.NewThread("t")
	th.AdvanceTo(150 * sim.Microsecond)
	if !m.WaitPoolUp(th) {
		t.Fatal("WaitPoolUp inside the first window reported no stall")
	}
	if th.Now() != u2 {
		t.Fatalf("woke at %v, want %v (the second window's Up)", th.Now(), u2)
	}
	if m.PoolStalls != 1 {
		t.Fatalf("PoolStalls = %d, want 1 (one stall spanning both windows)", m.PoolStalls)
	}
}

// A zero-length window (Down == Up) is inert: no instant observes the pool
// down, paging never stalls, pushdowns succeed, and no crash/recover edges
// appear — but the plan still counts the window as scheduled.
func TestZeroLengthWindowIsInert(t *testing.T) {
	const at = 100 * sim.Microsecond
	plan := poolWindows(fault.Window{Down: at, Up: at})
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(plan)

	for _, ts := range []sim.Time{at - 1, at, at + 1} {
		if _, isDown := plan.DownAt(fault.Pool(), ts); isDown {
			t.Fatalf("DownAt(Pool(), %v) reports down for a zero-length window", ts)
		}
	}

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(at)
	if p.M.WaitPoolUp(th) || th.Now() != at {
		t.Fatalf("paging stalled across a zero-length window (now %v)", th.Now())
	}
	var out int64
	if _, err := rt.Pushdown(th, sumFunc(a, 64, &out), Options{}); err != nil {
		t.Fatalf("pushdown across a zero-length window: %v", err)
	}
	if out != 64*63/2 {
		t.Fatalf("sum = %d, want %d", out, 64*63/2)
	}
	if countKind(ring, trace.KindPoolCrash) != 0 || countKind(ring, trace.KindPoolRecover) != 0 {
		t.Fatal("zero-length window produced pool-crash/pool-recover trace edges")
	}
	if p.M.PoolStalls != 0 {
		t.Fatalf("PoolStalls = %d, want 0", p.M.PoolStalls)
	}
	if got := plan.Counters().PoolWindows; got != 1 {
		t.Fatalf("PoolWindows = %d, want 1 (scheduled, even though inert)", got)
	}
}
