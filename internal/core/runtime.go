package core

import (
	"errors"
	"slices"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Wire sizes for the coherence protocol (the pushdown request/response
// sizes come from their marshalled forms in internal/netmodel).
const (
	ctrlMsgBytes = 48 // coherence control message
	pageMsgBytes = mem.PageSize + 32

	// midCrashTouchSpan is the page-access-ordinal range the seeded
	// mid-crash fraction maps onto: an armed context dies at its
	// (1 + frac·span)-th page access, once it has dirtied at least one
	// page. Page accesses — not wall progress — are the crash axis because
	// they are the only points where the memory kernel runs on the call's
	// behalf.
	midCrashTouchSpan = 256
)

// Func is a pushed-down function. It runs in the memory pool inside a
// temporary user context that shares the caller's address space: any address
// the caller could dereference, fn can too (§3.1).
type Func func(env *ddc.Env)

// Runtime is the TELEPORT instance pair of one process: the compute-kernel
// side (syscall entry, resident-list construction, heartbeats) and the
// memory-kernel side (RPC server, workqueue, temporary user contexts,
// coherence).
type Runtime struct {
	// P is the process whose address space pushdowns execute in.
	P *ddc.Process

	// Contexts is the number of parallel user contexts the memory pool
	// runs (§3.2 "Handling concurrent pushdown requests"; swept in
	// Figure 17). With one context, concurrent requests serialise FIFO.
	Contexts int

	// TiebreakWait is the paper's t: how long the compute pool waits after
	// satisfying the memory pool's concurrent write request before
	// reissuing its own (§4.1 "Concurrent page faults").
	TiebreakWait sim.Time

	// ContentionWindow bounds how recently the temporary context must have
	// touched a page for a compute-pool write fault on it to count as a
	// concurrent fault.
	ContentionWindow sim.Time

	// CtxSwitchPenalty scales the execution dilation applied when more
	// user contexts run than the memory pool has physical cores.
	CtxSwitchPenalty float64

	// QueueCap bounds the memory pool's workqueue: when every context is
	// busy and QueueCap requests are already waiting, admission control
	// sheds the call with ErrQueueFull instead of queueing it (deterministic
	// load-shedding; overload turns into fast failure, not unbounded wait).
	// Zero keeps the unbounded FIFO.
	QueueCap int

	// Breaker configures the runtime's health-tracking circuit breaker
	// (used by PushdownWithPolicy; bare Pushdown calls bypass it).
	Breaker BreakerConfig

	running int
	queue   []*waiter
	ps      *pushState
	down    bool // manual SetMemoryPoolDown override (indefinite outage)
	downObs bool // last heartbeat observation, for crash/recover trace edges
	agg     RuntimeStats

	// shardRecoverAt is the earliest shard restart that unblocks the last
	// ErrShardDown-shed call, so the recovery policy waits for it instead
	// of blind backoff.
	shardRecoverAt sim.Time

	brState    breakerState
	brStreak   int      // consecutive recoverable failures while closed
	brOpenedAt sim.Time // when the breaker last opened

	// journalBufs recycles undo-journal pre-image buffers across pushdown
	// calls (host-side allocation control only; no simulated effect).
	journalBufs pagePool
}

type waiter struct {
	t         *sim.Thread
	deadline  sim.Time // 0 = no timeout
	budget    bool     // deadline comes from Options.Deadline, not Timeout
	cancelled bool
}

// pushState is the coherence state shared by all pushdowns of one process
// that are in flight simultaneously (they share the borrowed page table,
// §3.2).
type pushState struct {
	rt   *Runtime
	temp *tempTable
	refs int
	pso  bool
}

// RuntimeStats aggregates protocol activity across calls.
type RuntimeStats struct {
	Calls         int64
	Cancelled     int64
	Killed        int64
	ComputeFaults int64 // compute-pool faults handled during pushdowns
	Upgrades      int64 // compute write-upgrades that needed coherence
	CoherenceMsgs int64
	Contentions   int64

	// Failure/recovery counters (§3.2 failure handling).
	PoolDownObserved   int64 // heartbeat observations that found the pool down
	ShardDownObserved  int64 // pushdowns shed because a resident page's replica set was unreachable
	QuorumLostObserved int64 // pushdowns shed because a resident page was below its write quorum
	QuorumAborts       int64 // executing pushdowns aborted (and rolled back) by partition onset
	CtxCrashes         int64 // temporary-context crashes injected (pre-commit + mid-execution)
	Retries            int64 // pushdown re-attempts by the recovery policy
	LocalFallbacks     int64 // pushdowns degraded to compute-side execution

	// Crash-consistency and overload counters.
	Shed                 int64 // requests rejected by admission control (queue full)
	DeadlineAborts       int64 // calls aborted for blowing their Options.Deadline budget
	Rollbacks            int64 // undo-journal rollbacks performed (mid-crash + deadline aborts)
	RolledBackPages      int64 // pages restored across all rollbacks
	BreakerOpens         int64 // circuit-breaker closed/half-open → open transitions
	BreakerHalfOpens     int64 // open → half-open transitions (cooldown elapsed)
	BreakerCloses        int64 // half-open → closed transitions (probe succeeded)
	BreakerShortCircuits int64 // calls sent straight to local execution while open

	// Per-phase virtual-time sums across calls (each call's Stats,
	// accumulated), so a run-level report can break pushdown time down
	// without retaining every per-call breakdown.
	PreSyncTime    sim.Time
	RequestTime    sim.Time
	QueueTime      sim.Time
	CtxSetupTime   sim.Time
	ExecTime       sim.Time
	OnlineSyncTime sim.Time
	ResponseTime   sim.Time
	PostSyncTime   sim.Time
}

// addPhases folds one call's breakdown into the aggregate sums.
func (r *Runtime) addPhases(st *Stats) {
	r.agg.PreSyncTime += st.PreSync
	r.agg.RequestTime += st.Request
	r.agg.QueueTime += st.Queue
	r.agg.CtxSetupTime += st.CtxSetup
	r.agg.ExecTime += st.Exec
	r.agg.OnlineSyncTime += st.OnlineSync
	r.agg.ResponseTime += st.Response
	r.agg.PostSyncTime += st.PostSync
}

// NewRuntime returns a TELEPORT runtime for p with the given number of
// memory-pool user contexts.
func NewRuntime(p *ddc.Process, contexts int) *Runtime {
	if contexts < 1 {
		contexts = 1
	}
	return &Runtime{
		P:                p,
		Contexts:         contexts,
		TiebreakWait:     15 * sim.Microsecond,
		ContentionWindow: 10 * sim.Microsecond,
		CtxSwitchPenalty: 0.05,
		Breaker:          DefaultBreaker(),
	}
}

// Stats returns the aggregate runtime statistics.
func (r *Runtime) Stats() RuntimeStats { return r.agg }

// SetMemoryPoolDown simulates an indefinite memory-pool or network failure,
// which the compute-side heartbeat thread detects (§3.2). Transient,
// scheduled outages come from the machine's fault plan instead
// (ddc.Machine.AttachFault); both feed the same heartbeat observation.
func (r *Runtime) SetMemoryPoolDown(down bool) { r.down = down }

// Heartbeat reports whether the memory pool is reachable ignoring the fault
// plan's crash schedule (which needs a virtual time — see HeartbeatAt).
func (r *Runtime) Heartbeat() bool { return !r.down }

// HeartbeatAt reports whether the memory pool is reachable at the given
// virtual time, consulting both the manual down flag and the machine's
// fault plan.
func (r *Runtime) HeartbeatAt(ts sim.Time) bool {
	_, down := r.poolDownAt(ts)
	return !down
}

// poolDownAt resolves the pool's status at ts; for a scheduled outage it
// also returns the controller's restart time (0 for the indefinite manual
// outage).
func (r *Runtime) poolDownAt(ts sim.Time) (recoverAt sim.Time, down bool) {
	if r.down {
		return 0, true
	}
	return r.P.M.Fault.DownAt(fault.Pool(), ts)
}

// shardGate checks every resident page's shard reachability on a sharded
// pool. A page whose primary shard and every backup are all unusable —
// crashed, or severed from the compute node by a link partition — sheds the
// call with ErrShardDown (Recoverable); on write-quorum configs (W > 1) a
// page with fewer than W usable replicas sheds it with ErrQuorumLost, since
// the call's writes could not commit. Either way the gate records the
// earliest heal that unblocks the working set, so the retry policy can wait
// for it instead of blind backoff. Free on single-shard pools.
func (r *Runtime) shardGate(t *sim.Thread, entries []netmodel.PageEntry) error {
	m := r.P.M
	k := m.Cfg.Shards()
	if k <= 1 || len(entries) == 0 {
		return nil
	}
	now := t.Now()
	// Resolve each shard's compute-side usability once; the entries stripe
	// across all of them. A shard that is up but partitioned is as unusable
	// as a crashed one.
	usableAt := make([]sim.Time, k)
	for s := 0; s < k; s++ {
		usableAt[s] = m.UsableAt(ddc.ComputePath(s), now)
	}
	reps := m.Cfg.EffReplicas()
	w := m.Cfg.EffWriteQuorum()
	var downWait, quorumWait sim.Time
	for _, e := range entries {
		primary := ddc.ShardOf(mem.PageID(e.ID), k)
		member := func(i int) sim.Time { return usableAt[(primary+i)%k] }
		// The whole replica set is unreachable: the earliest member heal
		// unblocks the page.
		if wake, short := quorumHeal(now, reps, 1, member); short {
			if downWait == 0 || wake < downWait {
				downWait = wake
			}
			continue
		}
		// Below the write quorum: quorum is restored once enough more
		// members heal.
		if wake, short := quorumHeal(now, reps, w, member); short && (quorumWait == 0 || wake < quorumWait) {
			quorumWait = wake
		}
	}
	if downWait > 0 {
		r.agg.ShardDownObserved++
		r.shardRecoverAt = downWait
		m.Metrics.Counter("push.shard-down").Inc()
		m.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindShardDown, Who: t.Name()})
		return ErrShardDown
	}
	if quorumWait > 0 {
		r.agg.QuorumLostObserved++
		r.shardRecoverAt = quorumWait
		m.Metrics.Counter("push.quorum-lost").Inc()
		m.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindShardDown, Arg: 1, Who: t.Name()})
		return ErrQuorumLost
	}
	return nil
}

// pageQuorumWait reports whether pg's replica set is below the write quorum
// at now — fewer than W members up and unpartitioned from the compute node —
// and, when it is, the instant enough scheduled heals restore quorum. Free
// on legacy (single-shard or W ≤ 1) configs.
func (r *Runtime) pageQuorumWait(pg mem.PageID, now sim.Time) (sim.Time, bool) {
	m := r.P.M
	k := m.Cfg.Shards()
	w := m.Cfg.EffWriteQuorum()
	if k <= 1 || w <= 1 {
		return 0, false
	}
	primary := ddc.ShardOf(pg, k)
	return quorumHeal(now, m.Cfg.EffReplicas(), w, func(i int) sim.Time {
		return m.UsableAt(ddc.ComputePath((primary+i)%k), now)
	})
}

// quorumHeal counts the members of a replica set usable at now, in ring
// order, where usableAt(i) is member i's earliest usable instant. Once need
// members are usable it reports false, asking no further member; otherwise
// it returns the instant enough heals bring the set to need usable members.
func quorumHeal(now sim.Time, reps, need int, usableAt func(i int) sim.Time) (sim.Time, bool) {
	var buf [8]sim.Time
	heals := buf[:0]
	usable := 0
	for i := 0; i < reps; i++ {
		if at := usableAt(i); at != now {
			heals = append(heals, at)
		} else if usable++; usable >= need {
			return 0, false
		}
	}
	slices.Sort(heals)
	return heals[need-usable-1], true
}

// observeHeartbeat is one compute-side heartbeat observation at t's current
// time. Transitions are recorded as pool-crash / pool-recover trace events
// so chaos runs are debuggable from the ring.
func (r *Runtime) observeHeartbeat(t *sim.Thread) bool {
	_, down := r.poolDownAt(t.Now())
	if down != r.downObs {
		kind := trace.KindPoolRecover
		if down {
			kind = trace.KindPoolCrash
		}
		r.P.M.Trace.Add(trace.Event{At: t.Now(), Kind: kind, Who: t.Name()})
		r.downObs = down
	}
	if down {
		r.agg.PoolDownObserved++
	}
	return down
}

// PushdownOrLocal attempts a pushdown and, if the request is cancelled
// while still queued (try_cancel succeeded after Options.Timeout), runs fn
// in the compute pool instead — the fallback §3.2 describes ("the
// application is free to execute fn directly in the compute pool"). It
// reports whether the function ultimately ran in the memory pool. For
// recovery from pool crashes and injected faults as well, use
// PushdownWithPolicy.
func (r *Runtime) PushdownOrLocal(t *sim.Thread, fn Func, opts Options) (Stats, bool, error) {
	st, err := r.Pushdown(t, fn, opts)
	if errors.Is(err, ErrCancelled) {
		r.runLocalFallback(t, fn)
		return st, false, nil
	}
	return st, true, err
}

// RetryThenLocal is the pushdown recovery policy: re-attempt a recoverably
// failed pushdown up to MaxRetries times with exponential backoff, then
// degrade gracefully to compute-side execution. A context-crashed pushdown
// is re-run once immediately (the crash does not consume a retry); a pool
// outage with a known restart time waits for the restart instead of blind
// backoff.
type RetryThenLocal struct {
	// MaxRetries bounds re-attempts after ErrCancelled / ErrMemoryPoolDown.
	MaxRetries int
	// Backoff is the first retry delay; it doubles per retry, capped at
	// 64×. Zero retries immediately.
	Backoff sim.Time
}

// DefaultRetryThenLocal is the policy the instrumented executors use.
func DefaultRetryThenLocal() RetryThenLocal {
	return RetryThenLocal{MaxRetries: 3, Backoff: 50 * sim.Microsecond}
}

// PushdownWithPolicy runs fn under the RetryThenLocal recovery policy and
// the runtime's circuit breaker. It returns the last pushdown attempt's
// breakdown, whether fn ultimately ran in the memory pool, and the error for
// non-recoverable failures (ErrKilled, RemoteError, ErrNotDisaggregated —
// recoverable ones are absorbed by the fallback). Every recoverable error is
// raised either before the pushed function commits or after its partial
// writes were rolled back from the undo journal, so fn's effects are applied
// exactly once no matter how many attempts were needed.
//
// While the breaker is open (Runtime.Breaker), calls short-circuit straight
// to compute-side execution without attempting a pushdown; after the
// cooldown one probe attempt is allowed through and its outcome closes or
// re-opens the breaker.
func (r *Runtime) PushdownWithPolicy(t *sim.Thread, fn Func, opts Options, pol RetryThenLocal) (Stats, bool, error) {
	// End-to-end latency of the whole policy call — every attempt, every
	// backoff wait, and any compute-side fallback — the operation class
	// whose tail the SLO analysis (internal/obs percentiles) reads.
	e2eStart := t.Now()
	defer func() {
		r.P.M.Metrics.Histogram("push.e2e.ns").Observe(t.Now() - e2eStart)
	}()
	backoff := pol.Backoff
	ctxRerun := false
	retries := 0
	for {
		if !r.breakerAllow(t) {
			r.agg.BreakerShortCircuits++
			r.P.M.Metrics.Counter("push.breaker.short-circuits").Inc()
			r.runLocalFallback(t, fn)
			return Stats{}, false, nil
		}
		st, err := r.Pushdown(t, fn, opts)
		switch {
		case err == nil:
			r.breakerSuccess(t)
			return st, true, nil

		case errors.Is(err, ErrContextCrashed):
			// §3.2: the controller reaps the dead context; the compute
			// side re-issues the request once, then gives up on the pool.
			r.breakerFailure(t)
			if ctxRerun {
				r.runLocalFallback(t, fn)
				return st, false, nil
			}
			ctxRerun = true
			r.agg.Retries++
			r.P.M.Metrics.Counter("push.retries").Inc()

		case Recoverable(err) && retries < pol.MaxRetries:
			r.breakerFailure(t)
			retries++
			r.agg.Retries++
			r.P.M.Metrics.Counter("push.retries").Inc()
			ws := t.Now()
			wsp := r.P.M.Tracer().Begin(t, trace.KindPushRetryWait, 0, int64(retries))
			if recoverAt, down := r.poolDownAt(t.Now()); down && recoverAt > 0 {
				// Scheduled outage: wait for the controller restart.
				t.AdvanceTo(recoverAt)
			} else if (errors.Is(err, ErrShardDown) || errors.Is(err, ErrQuorumLost)) && r.shardRecoverAt > t.Now() {
				// Scheduled shard outage or link partition: wait for the
				// earliest heal that unblocks the call's working set.
				t.AdvanceTo(r.shardRecoverAt)
			} else if backoff > 0 {
				t.Advance(backoff)
				if backoff < 64*pol.Backoff {
					backoff *= 2
				}
			}
			r.P.M.Tracer().End(t, wsp)
			r.P.M.Times.Add(metrics.CompPushRetry, t.Now()-ws)

		case Recoverable(err):
			// Out of retries: degrade to compute-side execution.
			r.breakerFailure(t)
			r.runLocalFallback(t, fn)
			return st, false, nil

		default:
			return st, true, err
		}
	}
}

// runLocalFallback executes fn in the compute pool and records the
// degradation.
func (r *Runtime) runLocalFallback(t *sim.Thread, fn Func) {
	r.agg.LocalFallbacks++
	r.P.M.Metrics.Counter("push.fallbacks").Inc()
	sp := r.P.M.Tracer().Begin(t, trace.KindFallbackLocal, 0, 0)
	fn(r.P.NewEnv(t))
	r.P.M.Tracer().End(t, sp)
}

// Pushdown ships fn to the memory pool and blocks the calling thread until
// it completes (§3.2, Figure 5). Other simulated threads of the process
// keep running in the compute pool; the coherence protocol keeps both sides
// consistent. It returns the per-call breakdown and an error for
// cancellation, kill, remote panic, or pool failure.
//
// Failure handling: the compute-side heartbeat observes the pool at call
// entry and again at every point where the call has spent virtual time
// before execution commits (request sent, context acquired, context set
// up). A crash observed at any of these points aborts the call with
// ErrMemoryPoolDown and the partial Stats breakdown — fn has not run, so
// the caller (or PushdownWithPolicy) may retry or run it locally. A crash
// after fn commits is indistinguishable from success here: the results
// already live in the pool's memory, which is also the process's only
// memory — the paper's kernel panics in that case.
func (r *Runtime) Pushdown(t *sim.Thread, fn Func, opts Options) (Stats, error) {
	var st Stats
	if r.observeHeartbeat(t) {
		return st, ErrMemoryPoolDown
	}
	if !r.P.M.Cfg.Disaggregated {
		return st, ErrNotDisaggregated
	}
	r.agg.Calls++
	callID := r.agg.Calls
	p := r.P
	defer r.addPhases(&st)
	tr := p.M.Tracer()
	p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindPushdownStart, Arg: callID, Who: t.Name()})
	callStart := t.Now()
	// The deadline budget is per attempt, measured from this entry; it is
	// enforced at every phase below and inside execution by the pager.
	var deadlineAt sim.Time
	if opts.Deadline > 0 {
		deadlineAt = callStart + opts.Deadline
	}
	sp := tr.Begin(t, trace.KindPushdown, 0, callID)
	defer func() {
		tr.End(t, sp)
		p.M.Metrics.Counter("push.calls").Inc()
		p.M.Metrics.Histogram("push.total.ns").Observe(t.Now() - callStart)
	}()

	// ❶–❷ Pre-pushdown synchronisation and request construction.
	mark := t.Now()
	ss := tr.Begin(t, trace.KindPushSync, 0, 0)
	entries, eagerPages := r.preSync(t, opts)
	tr.End(t, ss)
	st.PreSync = t.Now() - mark
	st.ResidentPages = len(entries)

	// On a sharded pool the call only proceeds when every resident page it
	// ships can be served — its primary shard up, or a replica live.
	if err := r.shardGate(t, entries); err != nil {
		return st, err
	}

	mark = t.Now()
	runs, err := netmodel.EncodeRuns(entries)
	if err != nil {
		return st, err
	}
	st.RLERuns = len(runs)
	// The request is a real wire message: fn/arg pointers, flags, any
	// inline argument bytes, and the compressed page list (RLE or dense
	// bitmap, whichever is smaller), which §6's compression keeps within
	// a single RDMA buffer.
	req := netmodel.PushdownRequest{
		Fn:       0x400000, // a code address in the shared space
		Arg:      0x7FFF0000,
		Flags:    uint32(opts.Flags),
		Resident: runs,
	}
	if opts.ArgBytes > 0 {
		req.ArgInline = make([]byte, opts.ArgBytes)
	}
	wire, err := req.Marshal()
	if err != nil {
		return st, err
	}
	st.RequestBytes = len(wire)
	p.M.Fabric.Send(t, st.RequestBytes, netmodel.ClassPushdown)
	st.Request = t.Now() - mark

	// The request transfer (and any fabric retries) took virtual time; a
	// pool crash in that window means the request was never acknowledged.
	if r.observeHeartbeat(t) {
		return st, ErrMemoryPoolDown
	}

	// ❸ Workqueue: wait for a free user context (FIFO; try_cancel applies
	// while queued, admission control sheds when the queue is at capacity).
	mark = t.Now()
	qs := tr.Begin(t, trace.KindPushQueue, 0, callID)
	err = r.acquire(t, opts, deadlineAt)
	tr.End(t, qs)
	st.Queue = t.Now() - mark
	p.M.Times.Add(metrics.CompPushQueue, st.Queue)
	p.M.Metrics.Histogram("push.queue.ns").Observe(st.Queue)
	switch {
	case errors.Is(err, ErrQueueFull):
		r.agg.Shed++
		p.M.Metrics.Counter("push.shed").Inc()
		p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindShed, Arg: callID, Who: t.Name()})
		return st, err
	case errors.Is(err, ErrDeadlineExceeded):
		r.agg.DeadlineAborts++
		p.M.Metrics.Counter("push.deadline-aborts").Inc()
		return st, err
	case err != nil:
		r.agg.Cancelled++
		return st, err
	}

	// A crash while the request sat in the workqueue: the context we were
	// just granted died with the controller.
	if r.observeHeartbeat(t) {
		r.release(t)
		return st, ErrMemoryPoolDown
	}
	// The queue wait alone may have consumed the whole budget.
	if deadlineAt > 0 && t.Now() > deadlineAt {
		r.agg.DeadlineAborts++
		p.M.Metrics.Counter("push.deadline-aborts").Inc()
		r.release(t)
		return st, ErrDeadlineExceeded
	}

	// ❹ Temporary user context setup (Figure 8).
	mark = t.Now()
	cs := tr.Begin(t, trace.KindPushSetup, 0, callID)
	ps := r.enterPush(t, entries, opts, &st)
	tr.End(t, cs)
	st.CtxSetup = t.Now() - mark

	// A crash during context setup, or an injected crash of the temporary
	// context itself, surfaces before fn commits: the compute side detects
	// it by heartbeat timeout, the controller reaps the dead context, and
	// the caller decides whether to retry or fall back.
	if r.observeHeartbeat(t) {
		r.exitPush(ps)
		r.release(t)
		return st, ErrMemoryPoolDown
	}
	if p.M.Fault.CtxCrash() {
		r.agg.CtxCrashes++
		p.M.Metrics.Counter("push.ctx-crashes").Inc()
		p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindFaultInjected, Arg: callID, Who: t.Name()})
		// Reap cost: one context switch in the pool plus the failure
		// notification round trip.
		rs := t.Now()
		t.AdvanceNs(p.M.Cfg.HW.CtxSwitchNs)
		p.M.Times.Add(metrics.CompPushProto, t.Now()-rs)
		p.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPushdown)
		r.exitPush(ps)
		r.release(t)
		return st, ErrContextCrashed
	}
	// Context setup may also have exhausted the budget (nothing is dirty
	// yet, so no rollback is needed).
	if deadlineAt > 0 && t.Now() > deadlineAt {
		r.agg.DeadlineAborts++
		p.M.Metrics.Counter("push.deadline-aborts").Inc()
		r.exitPush(ps)
		r.release(t)
		return st, ErrDeadlineExceeded
	}

	// Function execution with online coherence (Figure 9). The pager keeps
	// the call's undo journal and enforces the armed mid-execution crash
	// point and the deadline at every page access.
	mark = t.Now()
	es := tr.Begin(t, trace.KindPushExec, 0, callID)
	pager := &memPager{ps: ps, st: &st, opts: opts, dieAt: deadlineAt}
	pager.journal.pool = &r.journalBufs
	if frac, mid := p.M.Fault.CtxCrashMid(); mid {
		// Map the seeded fraction onto a page-access ordinal: the context
		// dies at its crashAt-th access — once it has dirtied at least one
		// page — which is deterministic for a given seed and workload.
		pager.crashAt = 1 + int(frac*float64(midCrashTouchSpan))
	}
	env := p.NewMemoryEnv(t, pager)
	env.Dilation = r.dilation
	var remoteErr error
	var abort *pushAbort
	func() {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if pa, ok := v.(pushAbort); ok {
				abort = &pa
				return
			}
			remoteErr = &RemoteError{Value: v}
		}()
		fn(env)
	}()
	tr.End(t, es)
	st.Exec = t.Now() - mark
	p.M.Metrics.Histogram("push.exec.ns").Observe(st.Exec)
	if abort != nil {
		return st, r.abortPush(t, ps, pager, callID, abort)
	}
	killed := opts.ExecLimit > 0 && st.Exec > opts.ExecLimit

	// ❺–❼ Completion response: status plus any tunnelled exception (§3.2's
	// C++-exception rethrow carries the exception structure back).
	mark = t.Now()
	resp := netmodel.PushdownResponse{Status: netmodel.StatusOK}
	if killed {
		resp.Status = netmodel.StatusKilled
	} else if remoteErr != nil {
		resp.Status = netmodel.StatusException
		resp.Exception = []byte(remoteErr.Error())
	}
	p.M.Fabric.Send(t, len(resp.Marshal()), netmodel.ClassPushdown)
	st.Response = t.Now() - mark

	// ❽ Post-pushdown synchronisation.
	mark = t.Now()
	posts := tr.Begin(t, trace.KindPushSync, 0, 1)
	r.postSync(t, ps, opts, eagerPages)
	tr.End(t, posts)
	st.PostSync = t.Now() - mark

	r.exitPush(ps)
	r.release(t)
	pager.journal.discard()
	p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindPushdownEnd, Arg: callID, Who: t.Name()})

	if killed {
		r.agg.Killed++
		return st, ErrKilled
	}
	return st, remoteErr
}

// abortPush tears one call down after the pushed function was stopped
// mid-execution — an armed context crash or a blown deadline budget. The
// controller reaps the dead context, rolls the undo journal back, and only
// then sends the failure notification: by the time the compute side learns
// anything, the pool's memory is pristine again (rollback-before-report),
// so the returned error is Recoverable even though fn partially ran.
func (r *Runtime) abortPush(t *sim.Thread, ps *pushState, pager *memPager, callID int64, ab *pushAbort) error {
	p := r.P
	if ab.midCrash {
		r.agg.CtxCrashes++
		p.M.Metrics.Counter("push.ctx-crashes").Inc()
		p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindFaultInjected, Arg: callID, Who: t.Name()})
		// Reap cost, as for a pre-commit crash.
		rs := t.Now()
		t.AdvanceNs(p.M.Cfg.HW.CtxSwitchNs)
		p.M.Times.Add(metrics.CompPushProto, t.Now()-rs)
	} else if errors.Is(ab.err, ErrQuorumLost) {
		r.agg.QuorumAborts++
		p.M.Metrics.Counter("push.quorum-aborts").Inc()
	} else {
		r.agg.DeadlineAborts++
		p.M.Metrics.Counter("push.deadline-aborts").Inc()
	}
	r.rollbackJournal(t, ps, pager, callID)
	p.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPushdown)
	r.exitPush(ps)
	r.release(t)
	return ab.err
}

// rollbackJournal restores every pre-image the call's undo journal holds,
// clears the rolled-back pages' dirty bits in the temporary page table (so
// a later dirty-bit merge cannot write back state that was never
// committed), and charges the controller's restore walk to virtual time.
func (r *Runtime) rollbackJournal(t *sim.Thread, ps *pushState, pager *memPager, callID int64) {
	n := pager.journal.pages()
	if n == 0 {
		return
	}
	p := r.P
	cfg := &p.M.Cfg.HW
	// The controller walks the journal: a PTE fixup plus a full-page DRAM
	// copy per captured page.
	rs := t.Now()
	lines := float64(mem.PageSize / cfg.DRAMLineBytes)
	t.AdvanceNs(hw.OpNs(cfg.MemoryClockGHz, float64(n)*cfg.PTEVisitOps) + float64(n)*lines*cfg.DRAMSeqLineNs)
	p.M.Times.Add(metrics.CompPushProto, t.Now()-rs)
	pager.journal.rollback(p.Space, func(pg mem.PageID) {
		ps.temp.entry(pg).dirty = false
	})
	p.Epoch++ // rolled-back pages invalidate any env fast-path mapping
	pager.st.RollbackPages = n
	r.agg.Rollbacks++
	r.agg.RolledBackPages += int64(n)
	p.M.Metrics.Counter("push.rollbacks").Inc()
	p.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindPushRollback, Arg: int64(n), Who: t.Name()})
}

// preSync performs the mode-dependent pre-pushdown synchronisation. It
// returns the resident-page list to ship (coherent modes) or, for the eager
// strawman, the page set to re-fetch afterwards.
func (r *Runtime) preSync(t *sim.Thread, opts Options) ([]netmodel.PageEntry, []mem.PageID) {
	p := r.P
	cfg := &p.M.Cfg.HW
	switch {
	case opts.Flags&FlagMigrateProcess != 0:
		// Naive whole-process migration (§4): synchronously transfer every
		// resident page — the naive path does not track dirtiness finer
		// than "the process ran here" — and clear the compute node's
		// memory, page by page through the eviction path.
		var pages []mem.PageID
		p.Cache.Range(func(pg mem.PageID, _, _ bool) bool {
			pages = append(pages, pg)
			return true
		})
		for range pages {
			r.flushPage(t)
		}
		p.Cache.Clear()
		p.Epoch++
		return nil, nil

	case opts.Flags&FlagEvictRanges != 0:
		// Per-thread variant (Figure 6): flush and evict only the pushed
		// computation's pages, page by page through the same eviction path.
		for _, rg := range opts.EvictRanges {
			rg.Pages(func(pg mem.PageID) {
				if p.Cache.Contains(pg) {
					r.flushPage(t)
					p.Cache.Remove(pg)
				}
			})
		}
		p.Epoch++
		return nil, nil

	case opts.Flags&FlagEagerSync != 0:
		// Strawman (Figure 20): synchronise every resident page up front,
		// synchronously and individually.
		var pages []mem.PageID
		p.Cache.Range(func(pg mem.PageID, _, _ bool) bool {
			pages = append(pages, pg)
			return true
		})
		for _, pg := range pages {
			p.M.Fabric.RoundTrip(t, ctrlMsgBytes, 0, netmodel.ClassSync)
			p.M.Fabric.Send(t, pageMsgBytes, netmodel.ClassSync)
			p.Cache.Remove(pg)
		}
		p.Epoch++
		return nil, pages

	case opts.Flags&FlagNoCoherence != 0:
		// Weak ordering: nothing is transmitted; the user syncs manually.
		return nil, nil

	default:
		// On-demand coherence: build the resident list (with permissions)
		// for the request message; no data moves.
		var entries []netmodel.PageEntry
		p.Cache.Range(func(pg mem.PageID, w, _ bool) bool {
			entries = append(entries, netmodel.PageEntry{ID: uint64(pg), Writable: w})
			return true
		})
		as := t.Now()
		t.AdvanceNs(hw.OpNs(cfg.ComputeClockGHz, float64(len(entries))*cfg.PageListEntryOps))
		p.M.Times.Add(metrics.CompPushProto, t.Now()-as)
		return entries, nil
	}
}

// flushPage charges one synchronous page eviction over the fabric: a
// control round trip, the page transfer, and the fault-handling software
// path on both ends.
func (r *Runtime) flushPage(t *sim.Thread) {
	cfg := &r.P.M.Cfg.HW
	r.P.M.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindSync, Who: t.Name()})
	r.P.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassSync)
	r.P.M.Fabric.Send(t, pageMsgBytes, netmodel.ClassSync)
	hs := t.Now()
	t.AdvanceNs(2 * cfg.FaultHandleNs)
	r.P.M.Times.Add(metrics.CompPushProto, t.Now()-hs)
}

// enterPush creates or joins the shared pushdown coherence state and
// performs Figure 8's MemorySetup, charging the table-clone cost.
func (r *Runtime) enterPush(t *sim.Thread, entries []netmodel.PageEntry, opts Options, st *Stats) *pushState {
	p := r.P
	cfg := &p.M.Cfg.HW
	// Cloning the caller's full page table (Figure 8 line 7) visits every
	// PTE of the process.
	as := t.Now()
	t.AdvanceNs(hw.OpNs(cfg.MemoryClockGHz, float64(p.Space.Pages())*cfg.PTEVisitOps))
	p.M.Times.Add(metrics.CompPushProto, t.Now()-as)

	if r.ps == nil {
		r.ps = &pushState{rt: r, temp: newTempTable(), pso: opts.Flags&FlagPSO != 0}
	}
	ps := r.ps
	ps.refs++

	coherent := opts.Flags&(FlagNoCoherence|FlagEagerSync|FlagMigrateProcess|FlagEvictRanges) == 0
	if coherent {
		// Figure 8 lines 8–13: exclude compute-writable pages, downgrade
		// compute-read-only pages.
		for _, e := range entries {
			ps.temp.invalidate(mem.PageID(e.ID), e.Writable)
			st.SetupInvalidations++
		}
		if ps.refs == 1 {
			p.SetPushHooks(&pushHooks{ps: ps})
		}
		p.Epoch++
	}
	return ps
}

// exitPush drops a reference to the shared state, recycling the temporary
// context when the last concurrent pushdown finishes (§3.2 ❺).
func (r *Runtime) exitPush(ps *pushState) {
	ps.refs--
	if ps.refs == 0 {
		r.P.SetPushHooks(nil)
		r.ps = nil
	}
}

// postSync performs the mode-dependent post-pushdown synchronisation.
func (r *Runtime) postSync(t *sim.Thread, ps *pushState, opts Options, eagerPages []mem.PageID) {
	p := r.P
	cfg := &p.M.Cfg.HW
	switch {
	case opts.Flags&FlagEagerSync != 0:
		// Re-fetch the previously resident set page by page so the compute
		// cache is warm again — the strawman's symmetric cost.
		for _, pg := range eagerPages {
			p.M.Fabric.RoundTrip(t, ctrlMsgBytes, pageMsgBytes, netmodel.ClassSync)
			p.Cache.Insert(pg, true, false)
		}
		p.Epoch++

	case opts.Flags&(FlagMigrateProcess|FlagEvictRanges|FlagNoCoherence) != 0:
		// Nothing to do: the cache is cold (migration/evict) or the user
		// owns synchronisation (weak ordering).

	default:
		// §4.1: merge the temporary context's dirty bits into the full page
		// table — a local operation in the memory pool, no communication.
		// Merged dirty pages will need a storage write-back if the pool
		// later evicts them.
		as := t.Now()
		t.AdvanceNs(hw.OpNs(cfg.MemoryClockGHz, float64(ps.temp.len())*cfg.PTEVisitOps))
		p.M.Times.Add(metrics.CompPushProto, t.Now()-as)
		if p.PoolRes != nil {
			for _, pg := range ps.temp.dirtyPages() {
				p.PoolRes.MarkDirty(pg)
			}
		}
	}
}

// acquire waits for a free memory-pool user context, honouring admission
// control (QueueCap), try_cancel timeouts, and the call's deadline budget
// for queued requests.
func (r *Runtime) acquire(t *sim.Thread, opts Options, deadlineAt sim.Time) error {
	if r.running < r.Contexts {
		r.running++
		r.P.M.Metrics.Gauge("push.running").Set(int64(r.running))
		return nil
	}
	if r.QueueCap > 0 && len(r.queue) >= r.QueueCap {
		// Deterministic load-shedding: the controller rejects the request
		// outright rather than letting the queue grow without bound.
		return ErrQueueFull
	}
	w := &waiter{t: t}
	if opts.Timeout > 0 {
		w.deadline = t.Now() + opts.Timeout
	}
	if deadlineAt > 0 && (w.deadline == 0 || deadlineAt < w.deadline) {
		// The budget expires first: a queued request that cannot start in
		// budget is cancelled at the budget instant, not the timeout.
		w.deadline = deadlineAt
		w.budget = true
	}
	r.queue = append(r.queue, w)
	t.Block()
	if w.cancelled {
		if w.budget {
			return ErrDeadlineExceeded
		}
		return ErrCancelled
	}
	return nil
}

// release frees the caller's user context and hands it to the next
// non-expired waiter, cancelling waiters whose deadline has passed.
func (r *Runtime) release(t *sim.Thread) {
	r.running--
	r.P.M.Metrics.Gauge("push.running").Set(int64(r.running))
	now := t.Now()
	for len(r.queue) > 0 {
		w := r.queue[0]
		r.queue = r.queue[1:]
		if w.deadline > 0 && now > w.deadline {
			// The request was still queued at its deadline: try_cancel
			// succeeds and the compute side resumed at the deadline.
			w.cancelled = true
			w.t.Unblock(w.deadline)
			continue
		}
		r.running++
		r.P.M.Metrics.Gauge("push.running").Set(int64(r.running))
		w.t.Unblock(now)
		return
	}
}

// dilation models memory-pool CPU contention: with more runnable user
// contexts than physical cores, each context's work stretches by the
// oversubscription ratio plus a context-switching penalty (§7.3,
// Figure 17's diminishing returns).
func (r *Runtime) dilation() float64 {
	cores := r.P.M.Cfg.HW.MemoryPoolCores
	if r.running <= cores {
		return 1
	}
	over := float64(r.running - cores)
	return float64(r.running) / float64(cores) * (1 + r.CtxSwitchPenalty*over)
}
