package bench

import (
	"fmt"
	"strings"

	"teleport/internal/advisor"
	"teleport/internal/fault"
	"teleport/internal/hw"
	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// WorkloadNames lists the eight evaluation workloads plus the extras
// (QFilter, Q1, PageRank).
func WorkloadNames() []string {
	ws := publicWorkloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// PlatformNames lists the selectable platforms. "teleport-auto" profiles
// the workload on the base DDC first and lets internal/advisor choose the
// operators to push.
func PlatformNames() []string {
	return []string{"local", "linux-ssd", "base-ddc", "teleport", "teleport-auto"}
}

// WorkloadResult is one workload execution for external tooling (cmd/ddcsim).
type WorkloadResult struct {
	Workload string
	Platform string
	Seconds  float64
	// Nanos is the same duration as an exact integer nanosecond count, for
	// bit-identical comparisons (floating-point seconds can round).
	Nanos   int64
	Profile []profile.OpStat
	// Report breaks the run's virtual time down by attribution component
	// and operator (always produced; costs no virtual time).
	Report *Report
	// Metrics is the registry snapshot when Options.Metrics is set.
	Metrics *metrics.Snapshot
	// Trace holds the machine's retained events when Options.TraceCap > 0.
	Trace []trace.Event
	// Fault summarises injection and recovery when Options.ChaosProfile is
	// set (nil otherwise).
	Fault *FaultReport

	// SpanProfile is the virtual-time profile folded from the trace when
	// Options.Profiling is set (nil otherwise; see internal/obs).
	SpanProfile *obs.Profile
	// Latency holds per-operation latency percentiles when
	// Options.Percentiles is set (nil otherwise).
	Latency []obs.OpLatency
	// Incidents holds the flight recorder's retained records when
	// Options.IncidentEvents > 0; IncidentsTotal counts every trigger, even
	// beyond the retention bound.
	Incidents      []obs.Incident
	IncidentsTotal int
	// DroppedEvents is the trace ring's wraparound loss (0 without a ring).
	DroppedEvents uint64
}

// FaultReport aggregates what a chaos run injected and how each layer
// recovered.
type FaultReport struct {
	Profile string
	Seed    int64

	// Injected is the plan's own count of every fault it produced.
	Injected fault.Counters

	// Recovery, layer by layer.
	FabricRetries  int64 // messages retransmitted by the fabric
	FabricDrops    int64 // messages lost (each one was retransmitted)
	SSDReadRetries int64 // device-level re-reads
	PoolStalls     int64 // paging operations that waited out a pool outage

	// Availability: concrete downtime through the run's end, replacing the
	// opaque window counts, plus the sharded pool's failover activity
	// (multi-shard pools only; zero/empty otherwise).
	PoolDowntime  sim.Time   // total whole-controller downtime
	ShardDowntime []sim.Time // per-shard downtime, indexed by shard
	FailoverReads int64      // accesses served by a replica while a primary was down
	ResyncPages   int64      // journaled pages re-replicated on shard recovery
	ShardStalls   int64      // accesses stalled because no replica was live

	// Partition tolerance (link-partition profiles and/or write-quorum
	// configs; zero otherwise): the union of every directed link's outage
	// windows, and the quorum machinery's activity — hinted handoff
	// records enqueued and replayed, anti-entropy heals, staleness caught
	// and repaired by versioned failover reads, and writes/reads stalled
	// below quorum (see internal/ddc).
	LinkFaults        bool     // the fault plan could partition links at all
	LinkDowntime      sim.Time // union of all directed-link partition windows
	HandoffRecords    int64    // hinted-handoff records enqueued (partition-caused)
	HandoffReplays    int64    // hinted records delivered after a link heal
	PartitionHeals    int64    // anti-entropy sweeps that delivered hinted records
	ReadRepairs       int64    // stale replica copies repaired before serving
	StaleReadsAverted int64    // reads that would have served stale bytes
	QuorumStalls      int64    // writes/reads stalled below their quorum

	// TELEPORT runtime recovery (teleport platforms only; zero elsewhere).
	PoolDownObserved   int64 // heartbeat observations that found the pool down
	ShardDownObserved  int64 // pushdowns shed because a page's replica set was down
	QuorumLostObserved int64 // pushdowns shed below their write quorum
	QuorumAborts       int64 // executing pushdowns aborted (and rolled back) by partition onset
	CtxCrashes         int64 // temporary-context crashes (pre-commit + mid-execution)
	PushRetries        int64 // pushdown re-attempts by the policy
	LocalFallbacks     int64 // pushdowns degraded to compute-side execution

	// Crash-consistency and overload recovery.
	Shed                 int64 // requests rejected by admission control
	DeadlineAborts       int64 // calls aborted over their deadline budget
	Rollbacks            int64 // undo-journal rollbacks performed
	RolledBackPages      int64 // pages restored across all rollbacks
	BreakerOpens         int64 // circuit-breaker open transitions
	BreakerCloses        int64 // circuit-breaker close transitions
	BreakerShortCircuits int64 // calls short-circuited to local while open

	// Tail latency under injection (Options.Percentiles runs only; nil
	// otherwise): the operation classes whose distribution chaos distorts
	// most — end-to-end pushdown (retries, backoff and fallbacks included),
	// remote page faults, and paging stalls waiting out pool outages.
	PushE2E     *obs.Percentiles // push.e2e.ns
	RemoteFault *obs.Percentiles // fault.remote.ns
	PoolStall   *obs.Percentiles // pool.stall.ns
}

// String renders the report as one summary block. A nil report (fault-free
// run) renders as a placeholder instead of panicking, so callers can print
// result.Fault unconditionally.
func (f *FaultReport) String() string {
	if f == nil {
		return "chaos: none"
	}
	// The injected line omits the plan's raw window counts; the
	// availability line reports the outages as concrete downtime instead.
	i := f.Injected
	avail := fmt.Sprintf("pool-downtime=%v", f.PoolDowntime)
	if len(f.ShardDowntime) > 0 {
		per := make([]string, len(f.ShardDowntime))
		for s, d := range f.ShardDowntime {
			per[s] = fmt.Sprintf("s%d=%v", s, d)
		}
		avail += fmt.Sprintf(", shard-downtime=[%s], failover-reads=%d resync-pages=%d shard-stalls=%d",
			strings.Join(per, " "), f.FailoverReads, f.ResyncPages, f.ShardStalls)
	}
	if f.LinkFaults || f.LinkDowntime > 0 || f.HandoffRecords+f.HandoffReplays+f.ReadRepairs+f.QuorumStalls+f.QuorumLostObserved+f.QuorumAborts > 0 {
		avail += fmt.Sprintf("\n  partition: link-downtime=%v handoffs=%d replays=%d heals=%d read-repairs=%d stale-averted=%d quorum-stalls=%d quorum-lost=%d quorum-aborts=%d",
			f.LinkDowntime, f.HandoffRecords, f.HandoffReplays, f.PartitionHeals,
			f.ReadRepairs, f.StaleReadsAverted, f.QuorumStalls, f.QuorumLostObserved, f.QuorumAborts)
	}
	s := fmt.Sprintf(
		"chaos profile=%s seed=%d\n  injected: drops=%d corrupt=%d spikes=%d ctx-crashes=%d ctx-mid-crashes=%d ssd-errs=%d\n  availability: %s\n  recovered: fabric retries=%d drops=%d, ssd re-reads=%d, pool stalls=%d\n  pushdown: pool-down obs=%d shard-down obs=%d ctx crashes=%d retries=%d local fallbacks=%d\n  crash-consistency: rollbacks=%d (pages=%d) shed=%d deadline-aborts=%d breaker opens=%d closes=%d short-circuits=%d",
		f.Profile, f.Seed,
		i.Drops, i.Corruptions, i.Spikes, i.CtxCrashes, i.CtxMidCrashes, i.SSDReadErrors,
		avail,
		f.FabricRetries, f.FabricDrops, f.SSDReadRetries, f.PoolStalls,
		f.PoolDownObserved, f.ShardDownObserved, f.CtxCrashes, f.PushRetries, f.LocalFallbacks,
		f.Rollbacks, f.RolledBackPages, f.Shed, f.DeadlineAborts,
		f.BreakerOpens, f.BreakerCloses, f.BreakerShortCircuits)
	tails := []struct {
		name string
		p    *obs.Percentiles
	}{{"push-e2e", f.PushE2E}, {"remote-fault", f.RemoteFault}, {"pool-stall", f.PoolStall}}
	for _, t := range tails {
		if t.p == nil {
			continue
		}
		s += fmt.Sprintf("\n  tail %s: n=%d p50=%s p99=%s p999=%s max=%s",
			t.name, t.p.Count, fmtNs(t.p.P50), fmtNs(t.p.P99), fmtNs(t.p.P999), fmtNs(float64(t.p.MaxNs)))
	}
	return s
}

// RunWorkload executes one named workload on one named platform.
func RunWorkload(workloadName, platformName string, opts Options) (WorkloadResult, error) {
	chaosProf, err := fault.ByName(opts.ChaosProfile)
	if err != nil {
		return WorkloadResult{}, err
	}
	var plat platform
	auto := false
	switch platformName {
	case "local":
		plat = platLocal
	case "linux-ssd":
		plat = platLinuxSSD
	case "base-ddc":
		plat = platBase
	case "teleport":
		plat = platTeleport
	case "teleport-auto":
		plat = platTeleport
		auto = true
	default:
		return WorkloadResult{}, fmt.Errorf("bench: unknown platform %q (have %v)", platformName, PlatformNames())
	}
	var w workload
	found := false
	for _, cand := range publicWorkloads() {
		if cand.Name == workloadName {
			w, found = cand, true
			break
		}
	}
	if !found {
		return WorkloadResult{}, fmt.Errorf("bench: unknown workload %q (have %v)", workloadName, WorkloadNames())
	}
	spec := runSpec{platform: plat}
	if auto {
		baseOut := run(w, opts, runSpec{platform: platBase})
		hwCfg := hw.Testbed()
		cfg := advisor.DefaultConfig()
		cfg.TableEntries = baseOut.Proc.Space.Pages()
		spec.pushOps, _ = advisor.Recommend(baseOut.Profile, cfg, &hwCfg)
		if spec.pushOps == nil {
			spec.pushOps = []string{}
		}
	}
	out := run(w, opts, spec)
	res := WorkloadResult{
		Workload: workloadName,
		Platform: platformName,
		Seconds:  out.Time.Seconds(),
		Nanos:    int64(out.Time),
		Profile:  out.Profile,
		Report:   newReport(workloadName, platformName, out),
		Trace:    out.Proc.M.Trace.Events(),
	}
	res.DroppedEvents = out.Proc.M.Trace.Dropped()
	if out.Reg != nil {
		res.Metrics = out.Reg.Snapshot()
	}
	if opts.Profiling {
		res.SpanProfile = obs.BuildProfile(res.Trace, res.DroppedEvents)
	}
	if opts.Percentiles && res.Metrics != nil {
		res.Latency = obs.LatencySummary(res.Metrics)
	}
	if out.Rec != nil {
		res.Incidents = out.Rec.Incidents()
		res.IncidentsTotal = out.Rec.Total()
	}
	if chaosProf.Name != "none" {
		m := out.Proc.M
		seed := opts.ChaosSeed
		if seed == 0 {
			seed = opts.Seed
		}
		fr := &FaultReport{
			Profile:        chaosProf.Name,
			Seed:           seed,
			Injected:       m.Fault.Counters(),
			SSDReadRetries: m.SSD.Stats().ReadRetries,
			PoolStalls:     m.PoolStalls,
		}
		fr.PoolDowntime = fault.TotalDowntime(m.Fault.Through(fault.Pool(), out.End), out.End)
		if k := m.Cfg.Shards(); k > 1 {
			fr.ShardDowntime = make([]sim.Time, k)
			for s := 0; s < k; s++ {
				fr.ShardDowntime[s] = fault.TotalDowntime(m.Fault.Through(fault.Shard(s), out.End), out.End)
				st := m.ShardStats[s]
				fr.FailoverReads += st.FailoverReads
				fr.ResyncPages += st.ResyncPages
				fr.ShardStalls += st.Stalls
				fr.HandoffRecords += st.HandoffRecords
				fr.HandoffReplays += st.HandoffReplays
				fr.PartitionHeals += st.PartitionHeals
				fr.ReadRepairs += st.ReadRepairs
				fr.StaleReadsAverted += st.StaleReadsAverted
				fr.QuorumStalls += st.QuorumStalls
			}
			if m.Fault.HasLinkFaults() {
				fr.LinkFaults = true
				fr.LinkDowntime = linkDowntime(m.Fault, k, out.End)
			}
		}
		tot := m.Fabric.Total()
		fr.FabricRetries = tot.Retries
		fr.FabricDrops = tot.Drops
		if out.RT != nil {
			rs := out.RT.Stats()
			fr.PoolDownObserved = rs.PoolDownObserved
			fr.ShardDownObserved = rs.ShardDownObserved
			fr.QuorumLostObserved = rs.QuorumLostObserved
			fr.QuorumAborts = rs.QuorumAborts
			fr.CtxCrashes = rs.CtxCrashes
			fr.PushRetries = rs.Retries
			fr.LocalFallbacks = rs.LocalFallbacks
			fr.Shed = rs.Shed
			fr.DeadlineAborts = rs.DeadlineAborts
			fr.Rollbacks = rs.Rollbacks
			fr.RolledBackPages = rs.RolledBackPages
			fr.BreakerOpens = rs.BreakerOpens
			fr.BreakerCloses = rs.BreakerCloses
			fr.BreakerShortCircuits = rs.BreakerShortCircuits
		}
		if opts.Percentiles {
			fr.PushE2E = histPercentiles(res.Metrics, "push.e2e.ns")
			fr.RemoteFault = histPercentiles(res.Metrics, "fault.remote.ns")
			fr.PoolStall = histPercentiles(res.Metrics, "pool.stall.ns")
		}
		res.Fault = fr
	}
	return res, nil
}

// histPercentiles extracts one named histogram's percentiles, or nil when
// the histogram is absent or empty.
func histPercentiles(s *metrics.Snapshot, name string) *obs.Percentiles {
	if s == nil {
		return nil
	}
	hs, ok := s.Histograms[name]
	if !ok || hs.Count == 0 {
		return nil
	}
	p := obs.FromHistogram(hs)
	return &p
}

// RunWorkloads executes several named workloads on one named platform —
// concurrently across host cores when opts.Parallel allows — and returns
// the results in input order. Each execution is hermetic, so the results
// are bit-identical to running the workloads one at a time.
func RunWorkloads(names []string, platformName string, opts Options) ([]WorkloadResult, error) {
	opts = opts.withPool()
	type outcome struct {
		res WorkloadResult
		err error
	}
	jobs := make([]func() outcome, len(names))
	for i, name := range names {
		jobs[i] = func() outcome {
			r, err := RunWorkload(name, platformName, opts)
			return outcome{r, err}
		}
	}
	outs := parmap(opts, jobs)
	results := make([]WorkloadResult, len(names))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
	}
	return results, nil
}

// Advise profiles a workload on the base DDC and returns the pushdown
// advisor's per-operator decisions (cost-model mode).
func Advise(workloadName string, opts Options) ([]advisor.Decision, error) {
	var w workload
	found := false
	for _, cand := range publicWorkloads() {
		if cand.Name == workloadName {
			w, found = cand, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", workloadName, WorkloadNames())
	}
	out := run(w, opts, runSpec{platform: platBase})
	hwCfg := hw.Testbed()
	cfg := advisor.DefaultConfig()
	cfg.TableEntries = out.Proc.Space.Pages()
	_, decisions := advisor.Recommend(out.Profile, cfg, &hwCfg)
	return decisions, nil
}
