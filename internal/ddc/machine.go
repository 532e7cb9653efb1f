package ddc

import (
	"fmt"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/storage"
	"teleport/internal/trace"
)

// Wire sizes for the paging protocol.
const (
	faultReqBytes  = 48                // page-fault request header
	pageRespBytes  = mem.PageSize + 32 // page payload + response header
	ctrlMsgBytes   = 48                // permission/invalidation control message
	writebackBytes = mem.PageSize + 32
)

// Machine is one (possibly disaggregated) machine: the fabric, the storage
// device, and the configuration shared by its processes.
type Machine struct {
	Cfg    Config
	Fabric *netmodel.Fabric
	SSD    *storage.SSD

	// Trace, when non-nil, receives paging/coherence/pushdown events (see
	// internal/trace). Tracing costs no virtual time. Attach with
	// AttachTrace so the fabric's fault events land in the same ring.
	Trace *trace.Ring

	// Fault, when non-nil, is the machine's deterministic chaos plan (see
	// internal/fault). Attach with AttachFault so every layer — fabric,
	// SSD, TELEPORT runtime — consults the same plan.
	Fault *fault.Plan

	// Times is the machine-wide virtual-time attribution accumulator:
	// every layer charges its own advances to a disjoint component, so
	// elapsed − Times.TotalNs() is pure compute. Always allocated; reads
	// and writes cost no virtual time.
	Times *metrics.TimeSet

	// Metrics, when non-nil, is the machine's quantitative registry.
	// Attach with AttachMetrics so fabric and SSD publish into it too.
	Metrics *metrics.Registry

	// PoolStalls counts paging operations that had to wait out a
	// memory-controller outage.
	PoolStalls int64

	// ShardStats aggregates per-shard fault-domain activity (failover
	// reads, re-sync replays, no-replica stalls) on multi-shard pools,
	// indexed by shard. Nil on single-shard pools.
	ShardStats []ShardStat

	// resync holds, per shard, the journal of pages whose copy on that
	// shard missed a write during an outage or partition; drainHandoff
	// replays it before the shard serves traffic again. Nil on
	// single-shard pools.
	resync []resyncQueue

	// pageVer tags every page's latest committed version and shardVer[s]
	// the version of shard s's copy, so failover reads detect staleness
	// (see shard.go). Pure metadata — reads and writes cost no virtual
	// time. Nil unless the pool is both sharded and replicated.
	pageVer  map[mem.PageID]uint64
	shardVer []map[mem.PageID]uint64

	// handoffDepth counts queued handoff/re-sync records across all
	// shards, mirrored into the "shard.handoff.depth" gauge.
	handoffDepth int64

	spans *trace.Tracer // lazily built over Trace; see Tracer()
}

// NewMachine validates cfg and assembles the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Times: &metrics.TimeSet{}}
	m.Fabric = netmodel.New(&m.Cfg.HW)
	m.SSD = storage.New(&m.Cfg.HW, mem.PageSize)
	m.Fabric.SetTimes(m.Times)
	m.SSD.SetTimes(m.Times)
	if k := cfg.Shards(); k > 1 {
		m.ShardStats = make([]ShardStat, k)
		m.resync = make([]resyncQueue, k)
		if cfg.EffReplicas() > 1 {
			m.pageVer = make(map[mem.PageID]uint64)
			m.shardVer = make([]map[mem.PageID]uint64, k)
			for s := range m.shardVer {
				m.shardVer[s] = make(map[mem.PageID]uint64)
			}
		}
	}
	return m, nil
}

// MustMachine is NewMachine for known-good configs (presets and tests).
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AttachTrace installs an event ring on the machine and on the fabric, so
// paging, coherence, pushdown, and fault events interleave in one timeline,
// and builds the span tracer over it so faults, RPCs, SSD accesses, and
// pushdowns record begin/end intervals with parentage.
func (m *Machine) AttachTrace(r *trace.Ring) {
	m.Trace = r
	m.Fabric.SetTrace(r)
	m.spans = trace.NewTracer(r)
	m.Fabric.SetTracer(m.spans)
	m.SSD.SetTracer(m.spans)
}

// Tracer returns the machine's span tracer, building one on demand when a
// test installed a ring on m.Trace directly instead of via AttachTrace. Nil
// when tracing is off (and nil is safe to call Begin/End on).
func (m *Machine) Tracer() *trace.Tracer {
	if m.Trace == nil {
		return nil
	}
	if m.spans == nil || m.spans.Ring() != m.Trace {
		m.spans = trace.NewTracer(m.Trace)
		m.Fabric.SetTracer(m.spans)
		m.SSD.SetTracer(m.spans)
	}
	return m.spans
}

// AttachMetrics installs (or, with nil, detaches) a metrics registry on the
// machine and on the layers that publish into one.
func (m *Machine) AttachMetrics(reg *metrics.Registry) {
	m.Metrics = reg
	m.Fabric.SetMetrics(reg)
	m.SSD.SetMetrics(reg)
}

// AttachFault installs a chaos plan on every layer of the machine: the
// fabric retransmits lost messages, the SSD re-reads failed pages, and the
// TELEPORT runtime (internal/core) observes the crash epochs through
// Machine.Fault. Passing nil detaches everything.
func (m *Machine) AttachFault(p *fault.Plan) {
	m.Fault = p
	if p == nil {
		m.Fabric.SetInjector(nil)
		m.SSD.SetInjector(nil)
		return
	}
	m.Fabric.SetInjector(p)
	m.SSD.SetInjector(p)
}

// CounterSource returns a closure producing a machine-wide named counter
// snapshot: every metrics counter, the chaos plan's injection counters, and
// the machine's own recovery tallies (pool stalls, per-shard failover and
// re-sync activity). The flight recorder (internal/obs) diffs consecutive
// snapshots into per-incident deltas. Reading is passive — it never advances
// a virtual clock — and every key is fixed, so marshalled deltas are
// deterministic.
func (m *Machine) CounterSource() func() map[string]int64 {
	return func() map[string]int64 {
		out := m.Metrics.CounterValues()
		if out == nil {
			out = make(map[string]int64, 16)
		}
		if m.Fault != nil {
			for k, v := range m.Fault.Counters().Map() {
				out[k] = v
			}
		}
		out["pool.stalls"] = m.PoolStalls
		tot := m.Fabric.Total()
		out["fabric.retries"] = tot.Retries
		out["fabric.drops"] = tot.Drops
		out["ssd.read-retries"] = m.SSD.Stats().ReadRetries
		for s := range m.ShardStats {
			st := &m.ShardStats[s]
			out[fmt.Sprintf("shard.%d.failover-reads", s)] = st.FailoverReads
			out[fmt.Sprintf("shard.%d.resync-pages", s)] = st.ResyncPages
			out[fmt.Sprintf("shard.%d.stalls", s)] = st.Stalls
			out[fmt.Sprintf("shard.%d.handoff-records", s)] = st.HandoffRecords
			out[fmt.Sprintf("shard.%d.handoff-replays", s)] = st.HandoffReplays
			out[fmt.Sprintf("shard.%d.read-repairs", s)] = st.ReadRepairs
			out[fmt.Sprintf("shard.%d.stale-averted", s)] = st.StaleReadsAverted
			out[fmt.Sprintf("shard.%d.quorum-stalls", s)] = st.QuorumStalls
		}
		out["shard.handoff.queued"] = m.handoffDepth
		return out
	}
}

// WaitPoolUp stalls t through a memory-controller outage: a paging
// operation issued while the controller is crashed blocks until the
// controller restarts (the compute pool has nowhere else to get the page
// from). It reports whether a stall happened.
func (m *Machine) WaitPoolUp(t *sim.Thread) bool {
	recoverAt, down := m.Fault.DownAt(fault.Pool(), t.Now())
	if !down {
		//lint:allow timecharge healthy-controller probe reads the fault schedule only: zero cost by design
		return false
	}
	m.PoolStalls++
	start := t.Now()
	// Back-to-back windows ([a,b) directly followed by [b,c)) chain: the
	// wake instant of one outage may land inside the next, so re-check
	// until the controller is genuinely up. One stall is counted per call
	// however many windows it spans.
	for down {
		t.AdvanceTo(recoverAt)
		recoverAt, down = m.Fault.DownAt(fault.Pool(), t.Now())
	}
	m.Times.Add(metrics.CompPoolStall, t.Now()-start)
	m.Metrics.Counter("pool.stall").Inc()
	m.Metrics.Histogram("pool.stall.ns").Observe(t.Now() - start)
	//lint:allow timecharge the stall loop always runs at least once (down holds on entry) and AdvanceTo charges it
	return true
}

// PushHooks is implemented by the TELEPORT runtime (internal/core). While a
// pushdown executes, the compute pool's fault path calls these so the
// coherence protocol can keep the temporary context's page table consistent
// (Figure 9, lines 3–10 and 18–25).
type PushHooks interface {
	// ComputeFaulted runs after the compute pool obtained page p with the
	// given permission via the normal fault path (the memory controller
	// piggybacks the temporary-context invalidation on the fault reply).
	ComputeFaulted(t *sim.Thread, p mem.PageID, write bool)

	// ComputeUpgrade runs when the compute pool holds p read-only and wants
	// write permission; the hook performs the coherence round trip and
	// invalidates the temporary context's copy. It returns once the compute
	// pool may write.
	ComputeUpgrade(t *sim.Thread, p mem.PageID)
}

// Process is a user process whose address space lives in the memory pool.
type Process struct {
	M     *Machine
	Space *mem.Space

	// Cache is the compute pool's local page cache (disaggregated) or the
	// monolithic page cache over the SSD (LocalMemBytes > 0); nil when
	// local memory is unlimited.
	Cache *PageCache

	// PoolRes is the memory pool's DRAM residency in front of the storage
	// pool; nil when the pool is unbounded.
	PoolRes *PageCache

	// Epoch increments whenever residency or permission state changes, so
	// Env fast paths can cache "this page is fine" safely.
	Epoch uint64

	hooks PushHooks

	// Recent fault pages: the controller's sequential-stream detector for
	// prefetching (tracks a few concurrent streams, like the DRAM model).
	faultStreams [4]mem.PageID
	nFaultStream int

	stats ProcStats
}

// ProcStats aggregates per-process paging activity.
type ProcStats struct {
	CacheHits      int64
	CacheMisses    int64
	RemoteFaults   int64 // pages demand-fetched from the memory pool
	Prefetched     int64
	Writebacks     int64 // dirty evictions written back over the fabric
	StorageInFault int64 // memory pool pages faulted in from storage
	StorageEvicts  int64
	SSDFaults      int64 // monolithic swap-ins
	Upgrades       int64 // read→write permission upgrades
}

// NewProcess creates a process on m with an empty address space.
func (m *Machine) NewProcess() *Process {
	p := &Process{M: m, Space: mem.NewSpace()}
	switch {
	case m.Cfg.Disaggregated:
		p.Cache = NewPageCache(m.Cfg.CachePages())
		if m.Cfg.MemoryPoolBytes > 0 {
			p.PoolRes = NewPageCache(int(m.Cfg.MemoryPoolBytes / mem.PageSize))
		}
	case m.Cfg.LocalMemBytes > 0:
		p.Cache = NewPageCache(int(m.Cfg.LocalMemBytes / mem.PageSize))
	}
	return p
}

// SetPushHooks installs (or clears, with nil) the TELEPORT coherence hooks.
func (p *Process) SetPushHooks(h PushHooks) {
	p.hooks = h
	p.Epoch++
}

// Hooks returns the installed coherence hooks, if any.
func (p *Process) Hooks() PushHooks { return p.hooks }

// Stats returns the accumulated paging statistics.
func (p *Process) Stats() ProcStats { return p.stats }

// ResetStats clears the paging statistics (used between experiment phases).
func (p *Process) ResetStats() { p.stats = ProcStats{} }

// seqFault reports whether pg directly extends one of the recent fault
// streams (prefetch trigger). Prefetched pages themselves extend the stream
// (pg matching stream+k for the prefetch window still counts via noteFault
// updates on demand faults only).
func (p *Process) seqFault(pg mem.PageID) bool {
	for i := 0; i < p.nFaultStream; i++ {
		d := int64(pg) - int64(p.faultStreams[i])
		if d >= 1 && d <= 8 {
			return true
		}
	}
	return false
}

// noteFault records a demand fault in the stream tracker.
func (p *Process) noteFault(pg mem.PageID) {
	for i := 0; i < p.nFaultStream; i++ {
		d := int64(pg) - int64(p.faultStreams[i])
		if d >= 0 && d <= 8 {
			p.faultStreams[i] = pg
			return
		}
	}
	if p.nFaultStream < len(p.faultStreams) {
		p.faultStreams[p.nFaultStream] = pg
		p.nFaultStream++
		return
	}
	copy(p.faultStreams[:], p.faultStreams[1:])
	p.faultStreams[len(p.faultStreams)-1] = pg
}

// ResizeCache rebounds the compute-local cache (or the monolithic page
// cache) to the given byte budget, typically after loading a dataset so a
// platform's cache is a fixed fraction of the working set. It is a no-op on
// machines with unlimited local memory.
func (p *Process) ResizeCache(bytes int64) {
	if p.Cache == nil {
		return
	}
	pages := int(bytes / mem.PageSize)
	if pages < 1 {
		pages = 1
	}
	p.Cache.SetCapacity(pages)
	if p.M.Cfg.Disaggregated {
		p.M.Cfg.ComputeCacheBytes = int64(pages) * mem.PageSize
	} else {
		p.M.Cfg.LocalMemBytes = int64(pages) * mem.PageSize
	}
	p.Epoch++
}

// ResizePool rebounds the memory pool's DRAM (Figure 15's sweep).
func (p *Process) ResizePool(bytes int64) {
	if !p.M.Cfg.Disaggregated {
		return
	}
	pages := int(bytes / mem.PageSize)
	if pages < 1 {
		pages = 1
	}
	if p.PoolRes == nil {
		p.PoolRes = NewPageCache(pages)
	} else {
		p.PoolRes.SetCapacity(pages)
	}
	p.M.Cfg.MemoryPoolBytes = int64(pages) * mem.PageSize
	p.Epoch++
}

// EnsureInPool makes page pg resident in the memory pool's DRAM, paging it
// in from the storage pool if necessary and charging t for the I/O. Write
// marks the pool copy dirty (it will need a storage write-back on eviction).
func (p *Process) EnsureInPool(t *sim.Thread, pg mem.PageID, write bool) {
	p.ensureInPool(t, pg, write, -1)
	//lint:allow timecharge delegates to ensureInPool: every pool-miss path charges, DRAM hits are free by design
}

// ensureInPool is EnsureInPool with optional pre-routing: served ≥ 0 means
// the caller already routed this logical access through AccessPage (a remote
// fault routes once for its whole compute→pool→storage chain), so the
// pool-miss path reuses that shard instead of routing — and counting a
// failover — a second time for the same read. The whole-controller outage
// stall still applies either way: the storage fault needs the controller up.
func (p *Process) ensureInPool(t *sim.Thread, pg mem.PageID, write bool, served int) {
	if p.PoolRes == nil {
		return // unbounded pool is always resident: there is no fault to charge
	}
	if _, _, ok := p.PoolRes.Lookup(pg); ok {
		if write {
			p.PoolRes.MarkDirty(pg)
		}
		return // pool DRAM hit is free by design: only faults charge I/O
	}
	// Recursive fault to the storage pool (§2.1): controller message plus
	// the device access. A crashed controller stalls the fault until it
	// restarts; on a sharded pool the fault is served by the page's shard,
	// failing over to a live replica during the shard's outage.
	if served < 0 {
		served = p.M.AccessPage(t, pg, write)
	} else {
		p.M.WaitPoolUp(t)
	}
	p.stats.StorageInFault++
	sp := p.M.Tracer().Begin(t, trace.KindStorageFault, uint64(pg), b2i(write))
	p.M.Fabric.RoundTrip(t, faultReqBytes, pageRespBytes, netmodel.ClassStorage)
	hs := t.Now()
	t.AdvanceNs(p.M.Cfg.HW.FaultHandleNs)
	p.M.Times.Add(metrics.CompFaultSW, t.Now()-hs)
	p.M.SSD.ReadPage(t, uint64(pg))
	for _, v := range p.PoolRes.Insert(pg, true, write) {
		p.stats.StorageEvicts++
		if v.Dirty {
			p.M.Fabric.Send(t, writebackBytes, netmodel.ClassStorage)
			p.M.SSD.WritePage(t, uint64(v.Page))
		}
	}
	p.M.ReplicatePage(t, pg, served)
	p.M.Tracer().End(t, sp)
	p.M.Metrics.Counter("fault.storage").Inc()
	p.Epoch++
}

// WritebackPage models the compute pool flushing one dirty page to the
// memory pool (eviction write-back, syncmem, eager sync).
func (p *Process) WritebackPage(t *sim.Thread, pg mem.PageID) {
	served := p.M.AccessPage(t, pg, true)
	p.stats.Writebacks++
	sp := p.M.Tracer().Begin(t, trace.KindWriteback, uint64(pg), 0)
	p.M.Fabric.Send(t, writebackBytes, netmodel.ClassWriteback)
	p.M.Tracer().End(t, sp)
	p.M.Metrics.Counter("writeback").Inc()
	p.M.ReplicatePage(t, pg, served)
	p.Cache.ClearDirty(pg)
	p.Epoch++
}
