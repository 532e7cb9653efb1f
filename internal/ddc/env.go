package ddc

import (
	"encoding/binary"
	"math"
	"math/bits"

	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Place says which resource pool a simulated thread is executing in.
type Place int

// Execution places.
const (
	PlaceCompute Place = iota
	PlaceMemory
)

// String names the place.
func (p Place) String() string {
	if p == PlaceMemory {
		return "memory"
	}
	return "compute"
}

// Pager services accesses that need residency or permission work. The
// default pager implements the monolithic and base-DDC compute-pool paths;
// internal/core installs a memory-place pager for pushdown execution.
type Pager interface {
	EnsurePage(e *Env, page mem.PageID, write bool)
}

// Env is the execution environment of one simulated thread inside one
// process: it knows where the thread runs, at what clock, and routes every
// data access through the paging and cost models. Application code (the
// DBMS, graph engine, MapReduce) performs all reads/writes through an Env.
type Env struct {
	T     *sim.Thread
	P     *Process
	Place Place

	// ClockGHz is the executing CPU's clock; Dilation (optional) scales CPU
	// cost up when user contexts outnumber memory-pool cores (§7.3).
	ClockGHz float64
	Dilation func() float64

	pager Pager

	// Page TLB: the page the last access resolved through the pager, with
	// its frame, valid while nothing in the process mutated (same epoch).
	// It is part of the model, not only a host cache: an access it serves
	// skips EnsurePage, so it decides which accesses count as cache hits
	// and bump the LRU order.
	fpValid bool
	fpWrite bool
	fpPage  mem.PageID
	fpEpoch uint64
	fpFrame []byte

	// Hot-line memo: the DRAM line the last touch ended on. A repeat access
	// entirely inside this line, with the process epoch unchanged, is
	// provably free under the models — the page TLB skips the pager and
	// chargeDRAM serves an in-stream line at zero cost with no state
	// mutation — so the accessors decode straight from fpFrame.
	// Validity: hot* is (re)anchored by every touch, hotValid implies
	// fpValid with the line on fpPage, and the epoch check catches every
	// pager/coherence event (eviction, rollback, upgrade), exactly as it
	// does for the page TLB.
	hotValid  bool
	hotWrite  bool
	hotLine   uint64
	lineB     uint64 // cached HW.DRAMLineBytes
	lineShift uint8  // log2(lineB) when it is a power of two, else 255

	// DRAM line model state: a small set of hardware-prefetch streams,
	// so interleaved sequential accesses (scan a column, append to an
	// output) each stream at full bandwidth like a real prefetcher, plus a
	// direct-mapped on-chip cache so hot small structures (group tables,
	// dimension indexes) do not pay DRAM latency per access.
	streams [dramStreams]uint64
	nStream int
	sClock  int
	l2      []uint64 // nil when HW.CacheLines is 0
	l2Mask  uint64

	// Access counters (per env, i.e. per simulated thread).
	reads, writes int64
}

// NewEnv returns a compute-place environment for t.
func (p *Process) NewEnv(t *sim.Thread) *Env {
	e := &Env{
		T: t, P: p, Place: PlaceCompute,
		ClockGHz: p.M.Cfg.HW.ComputeClockGHz,
		pager:    computePager{},
	}
	e.initLine()
	return e
}

// NewMemoryEnv returns a memory-place environment using a caller-supplied
// pager (TELEPORT's temporary-context fault handler).
func (p *Process) NewMemoryEnv(t *sim.Thread, pager Pager) *Env {
	e := &Env{
		T: t, P: p, Place: PlaceMemory,
		ClockGHz: p.M.Cfg.HW.MemoryClockGHz,
		pager:    pager,
	}
	e.initLine()
	return e
}

// initLine caches the DRAM line geometry (a shift when the configured line
// size is a power of two, which it always is on the shipped configs) and
// sizes the on-chip cache (hw.Config.Validate admits only powers of two).
func (e *Env) initLine() {
	hwc := &e.P.M.Cfg.HW
	e.lineB = uint64(hwc.DRAMLineBytes)
	e.lineShift = 255
	if e.lineB > 0 && e.lineB&(e.lineB-1) == 0 {
		e.lineShift = uint8(bits.TrailingZeros64(e.lineB))
	}
	if hwc.CacheLines > 0 {
		e.l2 = make([]uint64, hwc.CacheLines)
		e.l2Mask = uint64(hwc.CacheLines - 1)
	}
}

// lineOf maps an address to its DRAM line index.
func (e *Env) lineOf(x uint64) uint64 {
	if e.lineShift != 255 {
		return x >> e.lineShift
	}
	return x / e.lineB
}

// Accesses returns the environment's read and write access counts.
func (e *Env) Accesses() (reads, writes int64) { return e.reads, e.writes }

// Compute charges n abstract CPU operations at the environment's clock,
// scaled by the dilation factor if one is installed.
func (e *Env) Compute(n float64) {
	ns := hw.OpNs(e.ClockGHz, n)
	if e.Dilation != nil {
		ns *= e.Dilation()
	}
	e.T.AdvanceNs(ns)
}

// touch runs the paging state machine and charges DRAM cost for an access
// of n bytes at addr. It returns the frame of the accessed page, or nil when
// the access spans pages.
func (e *Env) touch(addr mem.Addr, n int, write bool) []byte {
	if write {
		e.writes++
	} else {
		e.reads++
	}
	first, last := mem.PageSpan(addr, n)
	if first == last && e.fpValid && first == e.fpPage && e.fpEpoch == e.P.Epoch &&
		(!write || e.fpWrite) {
		e.chargeDRAM(addr, n, true)
		return e.fpFrame
	}
	for pg := first; pg <= last; pg++ {
		e.pager.EnsurePage(e, pg, write)
	}
	e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch = true, last, write, e.P.Epoch
	e.fpFrame = e.P.Space.Frame(last)
	e.chargeDRAM(addr, n, first == last)
	if first != last {
		return nil
	}
	return e.fpFrame
}

// hot reports whether an access of n bytes at a falls entirely inside the
// hot line with the epoch unchanged (write accesses also need the line
// anchored with write permission, mirroring the page TLB's fpWrite
// condition). Such an access is free and mutation-free by construction.
func (e *Env) hot(a mem.Addr, n int, write bool) bool {
	return e.hotValid && (!write || e.hotWrite) && e.fpEpoch == e.P.Epoch &&
		e.lineOf(uint64(a)) == e.hotLine && e.lineOf(uint64(a)+uint64(n)-1) == e.hotLine
}

// load runs the models for a read of n bytes at a and returns the frame
// bytes from a onwards, or nil when the access spans pages.
func (e *Env) load(a mem.Addr, n int) []byte {
	if e.hot(a, n, false) {
		e.reads++
		return e.fpFrame[a&(mem.PageSize-1):]
	}
	if f := e.touch(a, n, false); f != nil {
		return f[a&(mem.PageSize-1):]
	}
	return nil
}

// store is load for writes: the caller writes into the returned bytes.
func (e *Env) store(a mem.Addr, n int) []byte {
	if e.hot(a, n, true) {
		e.writes++
		return e.fpFrame[a&(mem.PageSize-1):]
	}
	if f := e.touch(a, n, true); f != nil {
		return f[a&(mem.PageSize-1):]
	}
	return nil
}

// InvalidateFastPath drops the env's cached page state; the coherence layer
// calls this indirectly by bumping the process epoch.
func (e *Env) InvalidateFastPath() {
	e.fpValid = false
	e.hotValid = false
}

// dramStreams is the number of concurrent hardware-prefetch streams the
// DRAM model tracks per thread (real cores track 8–32).
const dramStreams = 8

// chargeDRAM implements the line-granular DRAM model: a line that sits in
// or directly after one of the thread's active access streams is served at
// streaming bandwidth (the hardware prefetcher); anything else pays a full
// random DRAM access and starts a new stream.
//
// It also (re)anchors the hot-line memo: its last line always ends up on an
// active prefetch stream, so a repeat access inside that line would charge
// zero and mutate nothing — the condition the hot-path accessors exploit.
// Multi-page accesses don't anchor (the fp page and the line's page must
// agree).
func (e *Env) chargeDRAM(addr mem.Addr, n int, single bool) {
	firstLine := e.lineOf(uint64(addr))
	lastLine := e.lineOf(uint64(addr) + uint64(n) - 1)
	e.hotValid = single
	e.hotLine = lastLine
	e.hotWrite = e.fpWrite
	var ns float64
	if firstLine == lastLine {
		// The common single-line access, most often still inside its
		// stream's line and so free.
		if ns = e.lineNs(firstLine); ns == 0 {
			return
		}
	} else {
		for l := firstLine; l <= lastLine; l++ {
			ns += e.lineNs(l)
		}
	}
	if ns > 0 {
		if e.Dilation != nil {
			ns *= e.Dilation()
		}
		e.T.AdvanceNs(ns)
	}
}

// lineNs runs the line model for one access to line l and returns its cost.
func (e *Env) lineNs(l uint64) float64 {
	cfg := &e.P.M.Cfg.HW
	for i := 0; i < e.nStream; i++ {
		switch e.streams[i] {
		case l:
			return 0 // still in this line: effectively L1
		case l - 1:
			e.streams[i] = l
			if e.l2 != nil {
				e.l2[l&e.l2Mask] = l
			}
			return cfg.DRAMSeqLineNs
		}
	}
	// Not on a stream: an on-chip cache hit if the line was touched
	// recently, a full DRAM access otherwise; either way a new stream
	// starts (replace round-robin).
	var ns float64
	if e.l2 != nil && e.l2[l&e.l2Mask] == l {
		ns = cfg.CacheHitNs
	} else {
		ns = cfg.DRAMRandNs
		if e.l2 != nil {
			e.l2[l&e.l2Mask] = l
		}
	}
	if e.nStream < dramStreams {
		e.streams[e.nStream] = l
		e.nStream++
	} else {
		e.streams[e.sClock] = l
		e.sClock = (e.sClock + 1) % dramStreams
	}
	return ns
}

// ReadU64 reads a uint64 through the paging model.
func (e *Env) ReadU64(a mem.Addr) uint64 {
	if b := e.load(a, 8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return e.P.Space.ReadU64(a)
}

// WriteU64 writes a uint64 through the paging model.
func (e *Env) WriteU64(a mem.Addr, v uint64) {
	if b := e.store(a, 8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	e.P.Space.WriteU64(a, v)
}

// ReadI64 reads an int64.
func (e *Env) ReadI64(a mem.Addr) int64 { return int64(e.ReadU64(a)) }

// WriteI64 writes an int64.
func (e *Env) WriteI64(a mem.Addr, v int64) { e.WriteU64(a, uint64(v)) }

// ReadF64 reads a float64.
func (e *Env) ReadF64(a mem.Addr) float64 { return math.Float64frombits(e.ReadU64(a)) }

// WriteF64 writes a float64.
func (e *Env) WriteF64(a mem.Addr, v float64) { e.WriteU64(a, math.Float64bits(v)) }

// ReadU32 reads a uint32.
func (e *Env) ReadU32(a mem.Addr) uint32 {
	if b := e.load(a, 4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return e.P.Space.ReadU32(a)
}

// WriteU32 writes a uint32.
func (e *Env) WriteU32(a mem.Addr, v uint32) {
	if b := e.store(a, 4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
		return
	}
	e.P.Space.WriteU32(a, v)
}

// ReadI32 reads an int32.
func (e *Env) ReadI32(a mem.Addr) int32 { return int32(e.ReadU32(a)) }

// WriteI32 writes an int32.
func (e *Env) WriteI32(a mem.Addr, v int32) { e.WriteU32(a, uint32(v)) }

// ReadU8 reads one byte.
func (e *Env) ReadU8(a mem.Addr) byte { return e.load(a, 1)[0] }

// WriteU8 writes one byte.
func (e *Env) WriteU8(a mem.Addr, v byte) { e.store(a, 1)[0] = v }

// ReadU64s reads len(dst) consecutive uint64s starting at a. It is
// element-for-element equivalent to that many ReadU64 calls — the paging
// state machine and DRAM charges run in the identical order — but runs of
// words inside an already-charged hot line decode straight from the
// borrowed frame without re-entering the model.
func (e *Env) ReadU64s(a mem.Addr, dst []uint64) {
	for i := 0; i < len(dst); {
		dst[i] = e.ReadU64(a)
		i++
		a += 8
		if !e.hotValid || e.fpEpoch != e.P.Epoch {
			continue
		}
		// Nothing below advances virtual time, so no yield can run and the
		// epoch cannot change mid-run: one check covers the whole line.
		end := (e.hotLine + 1) * e.lineB
		for i < len(dst) && uint64(a)+8 <= end {
			dst[i] = binary.LittleEndian.Uint64(e.fpFrame[a&(mem.PageSize-1):])
			e.reads++
			i++
			a += 8
		}
	}
}

// WriteU64s writes src as consecutive uint64s starting at a, with the same
// per-element equivalence as ReadU64s.
func (e *Env) WriteU64s(a mem.Addr, src []uint64) {
	for i := 0; i < len(src); {
		e.WriteU64(a, src[i])
		i++
		a += 8
		if !e.hotValid || !e.hotWrite || e.fpEpoch != e.P.Epoch {
			continue
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(src) && uint64(a)+8 <= end {
			binary.LittleEndian.PutUint64(e.fpFrame[a&(mem.PageSize-1):], src[i])
			e.writes++
			i++
			a += 8
		}
	}
}

// ReadU32s reads len(dst) consecutive uint32s starting at a (per-element
// equivalent to that many ReadU32 calls).
func (e *Env) ReadU32s(a mem.Addr, dst []uint32) {
	for i := 0; i < len(dst); {
		dst[i] = e.ReadU32(a)
		i++
		a += 4
		if !e.hotValid || e.fpEpoch != e.P.Epoch {
			continue
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(dst) && uint64(a)+4 <= end {
			dst[i] = binary.LittleEndian.Uint32(e.fpFrame[a&(mem.PageSize-1):])
			e.reads++
			i++
			a += 4
		}
	}
}

// WriteU32s writes src as consecutive uint32s starting at a (per-element
// equivalent to that many WriteU32 calls).
func (e *Env) WriteU32s(a mem.Addr, src []uint32) {
	for i := 0; i < len(src); {
		e.WriteU32(a, src[i])
		i++
		a += 4
		if !e.hotValid || !e.hotWrite || e.fpEpoch != e.P.Epoch {
			continue
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(src) && uint64(a)+4 <= end {
			binary.LittleEndian.PutUint32(e.fpFrame[a&(mem.PageSize-1):], src[i])
			e.writes++
			i++
			a += 4
		}
	}
}

// ReadBytes copies n bytes at a into buf (len(buf) == n).
func (e *Env) ReadBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.touch(a, len(buf), false)
	e.P.Space.ReadAt(a, buf)
}

// WriteBytes copies buf into the space at a.
func (e *Env) WriteBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.touch(a, len(buf), true)
	e.P.Space.WriteAt(a, buf)
}

// computePager implements the monolithic and base-DDC compute-place paths.
type computePager struct{}

func (computePager) EnsurePage(e *Env, pg mem.PageID, write bool) {
	p := e.P
	if !p.M.Cfg.Disaggregated {
		ensureLocal(e, pg, write)
		return
	}
	if w, _, ok := p.Cache.Lookup(pg); ok {
		p.stats.CacheHits++
		if write {
			if !w {
				upgradeWrite(e, pg)
			}
			p.Cache.MarkDirty(pg)
		}
		return
	}
	p.stats.CacheMisses++
	remoteFault(e, pg, write)
}

// ensureLocal is the monolithic path: free when DRAM is unlimited,
// otherwise an OS page cache over the local SSD.
func ensureLocal(e *Env, pg mem.PageID, write bool) {
	p := e.P
	if p.Cache == nil {
		return
	}
	if _, _, ok := p.Cache.Lookup(pg); ok {
		p.stats.CacheHits++
		if write {
			p.Cache.MarkDirty(pg)
		}
		return
	}
	p.stats.CacheMisses++
	p.stats.SSDFaults++
	hs := e.T.Now()
	e.T.AdvanceNs(p.M.Cfg.HW.FaultHandleNs)
	p.M.Times.Add(metrics.CompFaultSW, e.T.Now()-hs)
	p.M.Metrics.Counter("fault.ssd").Inc()
	p.M.SSD.ReadPage(e.T, uint64(pg))
	for _, v := range p.Cache.Insert(pg, true, write) {
		if v.Dirty {
			p.M.SSD.WritePage(e.T, uint64(v.Page))
		}
	}
	p.Epoch++
}

// upgradeWrite grants the compute pool write permission on a page it holds
// read-only. Outside pushdown the compute pool is the only writer, so the
// upgrade is a local page-table operation; during pushdown the TELEPORT
// hooks perform the coherence round trip (Figure 9, (R,R) → (W,∅)).
func upgradeWrite(e *Env, pg mem.PageID) {
	p := e.P
	p.stats.Upgrades++
	p.M.Metrics.Counter("upgrade").Inc()
	if p.hooks != nil {
		p.hooks.ComputeUpgrade(e.T, pg)
	}
	p.Cache.SetWritable(pg, true)
	p.Epoch++
}

// remoteFault pages pg in from the memory pool (§2.1's fault path),
// applying the pushdown hook and the base-DDC sequential prefetch.
func remoteFault(e *Env, pg mem.PageID, write bool) {
	p := e.P
	cfg := &p.M.Cfg.HW
	// A remote fault issued during a memory-controller outage has nowhere
	// to go: the compute pool stalls until the controller restarts. On a
	// sharded pool the fetch instead fails over to a live replica of the
	// page's shard when the primary alone is unusable. The fault is one
	// logical read, so it routes — and, during an outage, counts a
	// failover — exactly once, and the pool-miss leg below reuses the
	// serving shard instead of routing again.
	served := p.M.AccessPage(e.T, pg, write)
	p.stats.RemoteFaults++
	fstart := e.T.Now()
	sp := p.M.Tracer().Begin(e.T, trace.KindRemoteFault, uint64(pg), b2i(write))
	p.M.Fabric.RoundTrip(e.T, faultReqBytes, pageRespBytes, netmodel.ClassPageFault)
	hs := e.T.Now()
	e.T.AdvanceNs(cfg.FaultHandleNs)
	p.M.Times.Add(metrics.CompFaultSW, e.T.Now()-hs)
	p.ensureInPool(e.T, pg, write, served)
	if p.hooks != nil {
		p.hooks.ComputeFaulted(e.T, pg, write)
	}
	evictAll(e, p.Cache.Insert(pg, write, write))

	// Sequential prefetch (base DDC only; suppressed during pushdown, when
	// the coherence protocol owns the page tables). The controller tracks
	// a few fault streams so interleaved scans still prefetch.
	depth := p.M.Cfg.PrefetchDepth
	if depth > 0 && p.hooks == nil && p.seqFault(pg) {
		_, last, ok := p.Space.Extent()
		for i := 1; i <= depth; i++ {
			next := pg + mem.PageID(i)
			if !ok || next > last || p.Cache.Contains(next) {
				break
			}
			if p.PoolRes != nil && !p.PoolRes.Contains(next) {
				break // don't drag the storage pool into a prefetch
			}
			p.stats.Prefetched++
			ps := e.T.Now()
			e.T.AdvanceNs(float64(mem.PageSize) / cfg.NetBandwidthGBs)
			p.M.Times.Add(metrics.CompPrefetch, e.T.Now()-ps)
			p.M.Metrics.Counter("prefetch").Inc()
			evictAll(e, p.Cache.Insert(next, false, false))
		}
	}
	p.M.Tracer().End(e.T, sp)
	p.M.Metrics.Counter("fault.remote").Inc()
	p.M.Metrics.Histogram("fault.remote.ns").Observe(e.T.Now() - fstart)
	p.noteFault(pg)
	p.Epoch++
}

// evictAll charges write-backs for dirty victims.
func evictAll(e *Env, victims []Evicted) {
	for _, v := range victims {
		e.P.M.Trace.Add(trace.Event{At: e.T.Now(), Kind: trace.KindEviction, Page: uint64(v.Page), Arg: b2i(v.Dirty), Who: e.T.Name()})
		e.P.M.Metrics.Counter("eviction").Inc()
		if v.Dirty {
			e.P.stats.Writebacks++
			e.P.M.Fabric.Send(e.T, writebackBytes, netmodel.ClassWriteback)
			e.P.M.ReplicatePage(e.T, v.Page, e.P.M.serveShard(e.T.Now(), v.Page))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
