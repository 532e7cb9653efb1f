// Package fault is the simulator's deterministic chaos layer: a seeded
// schedule of transient network faults (message loss, corruption, latency
// spikes), memory-controller crash/restart epochs, pushdown-context crashes,
// and SSD read errors. Every decision is drawn from sim.RNG streams derived
// from one seed and every induced delay is charged to virtual time, so a
// chaos run is exactly as reproducible as a fault-free one: the same seed
// always yields the same faults, the same recovery actions, and the same
// virtual-time totals.
//
// The plan is consulted from three layers: internal/netmodel retransmits
// dropped/corrupted messages with capped exponential backoff, internal/storage
// re-reads failed SSD pages, and internal/core observes the crash epochs as a
// heartbeat and surfaces ErrMemoryPoolDown / ErrContextCrashed to its
// recovery policy. Because faults only ever add virtual time or force a
// retry/fallback that re-executes work exactly once, workload answers are
// identical to the fault-free run by construction.
package fault

import (
	"fmt"
	"sort"

	"teleport/internal/sim"
)

// MaxClasses bounds the per-traffic-class fault tables. It must be at least
// netmodel's class count; fault does not import netmodel (netmodel imports
// fault's consumer layers), so classes are plain ints here.
const MaxClasses = 8

// NetFaults is the transient-fault behaviour of one traffic class.
type NetFaults struct {
	// DropProb is the probability one message (or RPC leg) is lost in
	// flight and must be retransmitted after a timeout.
	DropProb float64
	// CorruptProb is the probability a message arrives but fails its
	// integrity check — same recovery as a drop.
	CorruptProb float64
	// SpikeProb is the probability a message is delayed by a congestion
	// spike of Uniform[SpikeMinNs, SpikeMaxNs] without needing a retry.
	SpikeProb  float64
	SpikeMinNs float64
	SpikeMaxNs float64
}

// Profile is a named fault mix. The zero value injects nothing.
type Profile struct {
	Name        string
	Description string

	// Net holds per-class transient network faults, indexed by
	// int(netmodel.Class).
	Net [MaxClasses]NetFaults

	// PoolMeanUp and PoolMeanDown drive the memory-controller crash
	// schedule: uptime between crashes is Uniform[½·MeanUp, 1½·MeanUp],
	// each outage lasts Uniform[½·MeanDown, 1½·MeanDown]. MeanUp == 0
	// disables crashes.
	PoolMeanUp   sim.Time
	PoolMeanDown sim.Time

	// ShardMeanUp and ShardMeanDown drive the per-shard crash schedules of
	// a sharded memory pool (ddc.Config.PoolShards > 1): each shard gets
	// its own independent schedule with these means, derived from its own
	// RNG stream so the number of shards queried never shifts the
	// whole-controller schedule above. ShardMeanUp == 0 disables per-shard
	// crashes.
	ShardMeanUp   sim.Time
	ShardMeanDown sim.Time

	// LinkMeanUp and LinkMeanDown drive per-directed-link partition
	// schedules between pool endpoints (the compute node and each shard):
	// each ordered (from, to) pair gets its own independent outage
	// schedule with these means, derived from its own RNG stream so
	// querying links never shifts any crash schedule above — and the two
	// directions of a pair fail independently, so partitions are
	// asymmetric (A can reach B while B cannot reach A). LinkMeanUp == 0
	// disables per-link partitions.
	LinkMeanUp   sim.Time
	LinkMeanDown sim.Time

	// SplitMeanUp and SplitMeanDown drive one correlated split-brain
	// schedule: during each split window, every link whose endpoints sit
	// on opposite sides of a fixed parity cut (compute with the
	// even-numbered shards, odd-numbered shards on the far side) is down
	// in both directions. SplitMeanUp == 0 disables splits.
	SplitMeanUp   sim.Time
	SplitMeanDown sim.Time

	// CtxCrashProb is the probability one pushdown's temporary user
	// context crashes before the pushed function commits.
	CtxCrashProb float64

	// CtxCrashMidProb is the probability one pushdown's temporary user
	// context crashes mid-execution — after the pushed function has begun
	// dirtying pages in the memory pool. The runtime rolls the call's undo
	// journal back before reporting the crash, so retries still observe
	// pristine state (see internal/core and DESIGN.md §8).
	CtxCrashMidProb float64

	// SSDReadErrProb is the probability one SSD page read fails and is
	// retried by the device layer.
	SSDReadErrProb float64
}

// SetNetAll applies nf to every traffic class.
func (p *Profile) SetNetAll(nf NetFaults) {
	for i := range p.Net {
		p.Net[i] = nf
	}
}

// Counters tallies every injected fault, by kind. Two runs with the same
// seed and workload must report identical counters.
type Counters struct {
	Drops         int64 // messages lost in flight
	Corruptions   int64 // messages failing integrity checks
	Spikes        int64 // latency spikes applied
	CtxCrashes    int64 // pushdown context crashes injected (pre-commit)
	CtxMidCrashes int64 // mid-execution context crashes armed
	SSDReadErrors int64 // SSD read errors injected
	PoolWindows   int64 // whole-controller crash windows generated so far
	ShardWindows  int64 // per-shard crash windows generated so far (all shards)
	LinkWindows   int64 // per-directed-link partition windows generated so far (all links)
	SplitWindows  int64 // correlated split-brain windows generated so far
}

// String summarises the counters.
func (c Counters) String() string {
	return fmt.Sprintf("drops=%d corrupt=%d spikes=%d ctx-crashes=%d ctx-mid-crashes=%d ssd-errs=%d crash-windows=%d shard-windows=%d link-windows=%d split-windows=%d",
		c.Drops, c.Corruptions, c.Spikes, c.CtxCrashes, c.CtxMidCrashes, c.SSDReadErrors, c.PoolWindows, c.ShardWindows, c.LinkWindows, c.SplitWindows)
}

// Map flattens the counters into named values, for merging into a run-wide
// counter snapshot (the flight recorder diffs consecutive snapshots into the
// per-incident delta). Keys are fixed, so marshalled output is deterministic.
func (c Counters) Map() map[string]int64 {
	return map[string]int64{
		"fault.drops":         c.Drops,
		"fault.corruptions":   c.Corruptions,
		"fault.spikes":        c.Spikes,
		"fault.ctx-crashes":   c.CtxCrashes,
		"fault.ctx-mid-crash": c.CtxMidCrashes,
		"fault.ssd-read-errs": c.SSDReadErrors,
		"fault.pool-windows":  c.PoolWindows,
		"fault.shard-windows": c.ShardWindows,
		"fault.link-windows":  c.LinkWindows,
		"fault.split-windows": c.SplitWindows,
	}
}

// Window is one outage of a component: it is down at every instant in
// [Down, Up) and back up at exactly Up. A zero-length window (Down == Up) is
// inert: no instant falls inside the half-open interval.
type Window struct {
	Down, Up sim.Time
}

// Plan is an instantiated fault schedule. A nil *Plan is inert: every method
// reports "no fault", so call sites need no guards. Methods are not
// synchronised — like the rest of the simulator, they run under the
// single-threaded virtual-time scheduler.
type Plan struct {
	Prof Profile
	Seed int64

	// Independent streams per layer, so the number of draws in one layer
	// (say, a retry storm on the fabric) never shifts another layer's
	// schedule. Mid-execution crashes draw from their own stream so that
	// enabling them never shifts the pre-commit crash schedule either.
	net, ctx, ctxMid, ssd *sim.RNG

	// root is retained to derive outage-schedule streams lazily; Derive is
	// a pure function of (seed, salt), so deriving a stream on first use
	// never shifts the layer streams above, and a run that never queries a
	// component draws nothing for it. Schedules are keyed by that salt.
	root   *sim.RNG
	scheds map[uint64]*schedule

	pinnedLinks bool // a test pinned some link's windows (HasLinkFaults)

	c Counters
}

// EndpointCompute is the link-endpoint index of the compute node; pool shards
// are endpoints 0..K-1. Link schedules are keyed by ordered endpoint pairs,
// so Link(EndpointCompute, 2) is the compute→shard-2 direction and
// Link(2, EndpointCompute) the reverse.
const EndpointCompute = -1

// Component names what one outage schedule takes down: the whole memory
// controller (Pool), one pool shard (Shard), or one direction of one link
// between pool endpoints (Link). The zero value is Pool.
type Component struct {
	kind     kind
	from, to int // the shard index in from; a link's endpoints in from, to
}

type kind uint8

const (
	kindPool kind = iota
	kindShard
	kindLink
	kindSplit // the correlated split-brain cut, folded into cut-crossing links
)

// Pool is the whole memory controller.
func Pool() Component { return Component{kind: kindPool} }

// Shard is pool shard s. Shards crash independently of the whole controller
// and of each other.
func Shard(s int) Component { return Component{kind: kindShard, from: s} }

// Link is the directed link from endpoint from to endpoint to
// (EndpointCompute or a shard index). The two directions of a pair fail
// independently, so partitions are asymmetric, and a link is independent of
// its endpoints' crash schedules: a shard can be up yet unreachable.
func Link(from, to int) Component { return Component{kind: kindLink, from: from, to: to} }

var splitCut = Component{kind: kindSplit}

// Stream salts. The layer streams take 1–5 (the pool schedule keeps the
// crash layer's 2); shard s takes shardSaltBase+s; the split-brain schedule
// and per-link streams sit far past the shard salts. A link salt is a pure
// function of the ordered (from, to) endpoint pair, so link (a, b)'s schedule
// is identical no matter how many other links or shards are queried, and
// (a, b) and (b, a) draw from distinct streams.
const (
	poolSalt      = 2
	shardSaltBase = 0x100
	splitSalt     = 0x8000
	linkSaltBase  = 0x10000
	linkStride    = 0x200
)

// MaxShards bounds the pool shards a plan can tell apart: with endpoint
// indices below it, every endpoint-plus-one fits under linkStride, so every
// link salt is distinct, and every shard salt stays below splitSalt.
const MaxShards = linkStride - 1

// salt is the RNG salt c's schedule derives its stream from, and the key it
// is stored under.
func (c Component) salt() uint64 {
	switch c.kind {
	case kindShard:
		return shardSaltBase + uint64(c.from)
	case kindLink:
		return linkSaltBase + uint64(c.from+1)*linkStride + uint64(c.to+1)
	case kindSplit:
		return splitSalt
	}
	return poolSalt
}

// valid reports whether c can ever be down: negative shards, self-links and
// out-of-range endpoints never are.
func (c Component) valid() bool {
	switch c.kind {
	case kindShard:
		return c.from >= 0
	case kindLink:
		return c.from != c.to && c.from >= EndpointCompute && c.to >= EndpointCompute
	}
	return true
}

// crossesCut reports whether c is a link whose endpoints sit on opposite
// sides of the fixed split-brain cut: the compute node sits with the
// even-numbered shards; odd-numbered shards are on the far side.
func (c Component) crossesCut() bool {
	side := func(endpoint int) int {
		if endpoint == EndpointCompute {
			return 0
		}
		return endpoint & 1
	}
	return c.kind == kindLink && side(c.from) != side(c.to)
}

// means returns the profile's uptime and outage means for schedules of kind
// k and the counter their windows are tallied in.
func (p *Plan) means(k kind) (mu, md sim.Time, generated *int64) {
	switch k {
	case kindShard:
		return p.Prof.ShardMeanUp, p.Prof.ShardMeanDown, &p.c.ShardWindows
	case kindLink:
		return p.Prof.LinkMeanUp, p.Prof.LinkMeanDown, &p.c.LinkWindows
	case kindSplit:
		return p.Prof.SplitMeanUp, p.Prof.SplitMeanDown, &p.c.SplitWindows
	}
	return p.Prof.PoolMeanUp, p.Prof.PoolMeanDown, &p.c.PoolWindows
}

// schedule is one component's outage windows, generated lazily but
// deterministically on its own stream: window k is a pure function of (salt,
// means, k), so it does not matter in what order — or at what virtual times
// — the schedule is queried.
type schedule struct {
	rng     *sim.RNG
	windows []Window
	cursor  sim.Time // end of the generated schedule
	pinned  bool     // explicit Pin schedule; never extended
}

// NewPlan instantiates prof with the given seed.
func NewPlan(prof Profile, seed int64) *Plan {
	root := sim.NewRNG(seed)
	return &Plan{
		Prof:   prof,
		Seed:   seed,
		net:    root.Derive(1),
		ctx:    root.Derive(3),
		ctxMid: root.Derive(5),
		ssd:    root.Derive(4),
		root:   root,
	}
}

// Counters returns the injected-fault tallies so far.
func (p *Plan) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return p.c
}

// SendFault decides the fate of one message (or RPC) transmission attempt of
// the given traffic class. It returns whether the attempt was lost (dropped
// or corrupted — the caller must retransmit after a timeout) and any extra
// latency to charge for a congestion spike.
func (p *Plan) SendFault(class int) (lost bool, extraNs float64) {
	if p == nil || class < 0 || class >= MaxClasses {
		return false, 0
	}
	nf := &p.Prof.Net[class]
	if nf.DropProb > 0 && p.net.Bernoulli(nf.DropProb) {
		p.c.Drops++
		return true, 0
	}
	if nf.CorruptProb > 0 && p.net.Bernoulli(nf.CorruptProb) {
		p.c.Corruptions++
		return true, 0
	}
	if nf.SpikeProb > 0 && p.net.Bernoulli(nf.SpikeProb) {
		p.c.Spikes++
		span := nf.SpikeMaxNs - nf.SpikeMinNs
		return false, nf.SpikeMinNs + p.net.Float64()*span
	}
	return false, 0
}

// scheduleAt returns c's schedule extended to cover at, creating it on first
// use; nil when c has none — its kind is disabled by the profile and no
// windows were pinned.
func (p *Plan) scheduleAt(c Component, at sim.Time) *schedule {
	mu, md, generated := p.means(c.kind)
	salt := c.salt()
	sc := p.scheds[salt]
	if sc == nil {
		if mu <= 0 {
			return nil
		}
		sc = p.newSchedule(salt)
	}
	if sc.pinned || mu <= 0 {
		return sc
	}
	// Uptime Uniform[½·mu, 1½·mu], outage Uniform[½·md, 1½·md], md
	// defaulting to 1 ms.
	if md <= 0 {
		md = sim.Millisecond
	}
	for sc.cursor <= at {
		down := sc.cursor + sc.rng.Duration(mu/2, mu+mu/2)
		up := down + sc.rng.Duration(md/2, md+md/2)
		sc.windows = append(sc.windows, Window{Down: down, Up: up})
		sc.cursor = up
		*generated++
	}
	return sc
}

func (p *Plan) newSchedule(salt uint64) *schedule {
	if p.scheds == nil {
		p.scheds = make(map[uint64]*schedule)
	}
	sc := &schedule{rng: p.root.Derive(salt)}
	p.scheds[salt] = sc
	return sc
}

// downAt reports whether the schedule has an outage covering at.
func (sc *schedule) downAt(at sim.Time) (recoverAt sim.Time, down bool) {
	i := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].Up > at })
	if i < len(sc.windows) && sc.windows[i].Down <= at {
		return sc.windows[i].Up, true
	}
	return 0, false
}

// through returns a copy of the windows that begin before at, oldest first.
func (sc *schedule) through(at sim.Time) []Window {
	var out []Window
	for _, w := range sc.windows {
		if w.Down >= at {
			break
		}
		out = append(out, w)
	}
	return out
}

// DownAt reports whether c is down at virtual time at; if it is, recoverAt
// is when it comes back up. A link is also down while a split-brain window
// is open and its endpoints sit on opposite sides of the cut; when both
// apply, recoverAt is the later heal.
func (p *Plan) DownAt(c Component, at sim.Time) (recoverAt sim.Time, down bool) {
	if p == nil || !c.valid() {
		return 0, false
	}
	if sc := p.scheduleAt(c, at); sc != nil {
		recoverAt, down = sc.downAt(at)
	}
	if c.crossesCut() {
		if sc := p.scheduleAt(splitCut, at); sc != nil {
			if rec, d := sc.downAt(at); d {
				if !down || rec > recoverAt {
					recoverAt = rec
				}
				down = true
			}
		}
	}
	return recoverAt, down
}

// Through returns c's outage windows that begin before at, oldest first,
// extending a randomised schedule as needed. A cut-crossing link's split
// windows follow its own, so the result is the full set of instants DownAt
// reports down for. Reports use it to turn the schedule into concrete
// downtime (TotalDowntime) instead of an opaque window count.
func (p *Plan) Through(c Component, at sim.Time) []Window {
	if p == nil || !c.valid() {
		return nil
	}
	var out []Window
	if sc := p.scheduleAt(c, at); sc != nil {
		out = sc.through(at)
	}
	if c.crossesCut() {
		if sc := p.scheduleAt(splitCut, at); sc != nil {
			out = append(out, sc.through(at)...)
		}
	}
	return out
}

// Pin fixes c's schedule to exactly the given windows — sorted by Down,
// non-overlapping — overriding any randomised schedule the profile would
// generate for it. Boundary-condition tests use it to place an outage edge
// at an exact virtual-time instant, which the randomised schedules cannot.
func (p *Plan) Pin(c Component, ws ...Window) {
	if p == nil || !c.valid() {
		return
	}
	_, _, generated := p.means(c.kind)
	salt := c.salt()
	sc := p.scheds[salt]
	if sc == nil {
		sc = p.newSchedule(salt)
	}
	sc.pinned = true
	sc.windows = nil
	var prev sim.Time
	for _, w := range ws {
		if w.Up < w.Down || w.Down < prev {
			panic(fmt.Sprintf("fault: Pin windows must be sorted and non-overlapping, got [%v,%v) after %v",
				w.Down, w.Up, prev))
		}
		prev = w.Up
		sc.windows = append(sc.windows, w)
		*generated++
	}
	sc.cursor = prev
	if c.kind == kindLink {
		p.pinnedLinks = true
	}
}

// HasLinkFaults reports whether the plan can partition links at all — the
// profile enables per-link or split-brain schedules, or a test pinned
// explicit link windows. Callers use it to skip per-link bookkeeping on
// crash-only plans.
func (p *Plan) HasLinkFaults() bool {
	return p != nil && (p.Prof.HasPartitions() || p.pinnedLinks)
}

// TotalDowntime sums each window's overlap with [0, through). The windows
// need not be clipped: overlap past through is excluded.
func TotalDowntime(ws []Window, through sim.Time) sim.Time {
	var total sim.Time
	for _, w := range ws {
		up := w.Up
		if up > through {
			up = through
		}
		if up > w.Down {
			total += up - w.Down
		}
	}
	return total
}

// UnionDowntime returns the length of the union of the windows' overlap with
// [0, through) — the virtual time during which at least one of the schedules
// the windows came from was down ("degraded mode" when fed every shard's
// windows). The input may be unsorted and overlapping; it is not modified.
func UnionDowntime(ws []Window, through sim.Time) sim.Time {
	if len(ws) == 0 {
		return 0
	}
	sorted := make([]Window, len(ws))
	copy(sorted, ws)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Down != sorted[j].Down {
			return sorted[i].Down < sorted[j].Down
		}
		return sorted[i].Up < sorted[j].Up
	})
	var total sim.Time
	cur := sorted[0]
	for _, w := range sorted[1:] {
		if w.Down <= cur.Up {
			if w.Up > cur.Up {
				cur.Up = w.Up
			}
			continue
		}
		total += TotalDowntime([]Window{cur}, through)
		cur = w
	}
	total += TotalDowntime([]Window{cur}, through)
	return total
}

// CtxCrash decides whether one pushdown's temporary context crashes before
// the pushed function commits.
func (p *Plan) CtxCrash() bool {
	if p == nil || p.Prof.CtxCrashProb <= 0 {
		return false
	}
	if p.ctx.Bernoulli(p.Prof.CtxCrashProb) {
		p.c.CtxCrashes++
		return true
	}
	return false
}

// CtxCrashMid decides whether one pushdown's temporary context crashes
// mid-execution, after the pushed function has begun dirtying pages; frac
// in [0,1) positions the crash point within the call (the runtime maps it
// onto a page-access ordinal). A crash armed here may still not fire — the
// function can finish before reaching the crash point — so CtxMidCrashes
// counts armings; the runtime's Rollbacks counter counts actual fires.
func (p *Plan) CtxCrashMid() (frac float64, crash bool) {
	if p == nil || p.Prof.CtxCrashMidProb <= 0 {
		return 0, false
	}
	if !p.ctxMid.Bernoulli(p.Prof.CtxCrashMidProb) {
		return 0, false
	}
	p.c.CtxMidCrashes++
	return p.ctxMid.Float64(), true
}

// SSDReadError decides whether one SSD page read fails.
func (p *Plan) SSDReadError() bool {
	if p == nil || p.Prof.SSDReadErrProb <= 0 {
		return false
	}
	if p.ssd.Bernoulli(p.Prof.SSDReadErrProb) {
		p.c.SSDReadErrors++
		return true
	}
	return false
}
