package ddc

// This file is the sharded-pool fault-domain layer: with Config.PoolShards
// K > 1 the memory pool is K controllers, each an independent crash domain
// under the fault plan's per-shard schedules, and pages stripe across them
// by page ID. With Config.Replicas R > 1 every page also lives on R−1
// backup shards, and the write path is a quorum protocol: a write commits
// once W reachable replicas hold the copy (Config.WriteQuorum; W ≤ 1 is the
// legacy synchronous fan-out that never stalls), while unreachable replicas
// — crashed shards, or shards severed by an asymmetric link partition —
// receive deterministic hinted-handoff records instead. Every copy carries a
// version tag, so a failover read that lands on a shard that missed writes
// detects the staleness and read-repairs from the freshest reachable copy
// rather than silently serving stale bytes, and an anti-entropy sweep drains
// a shard's handoff queue — with the transfer traffic charged — as soon as
// traffic touches it over a healed link. Every path here is skipped
// entirely on single-shard pools, keeping K=1 machines byte-identical to
// the single-controller model, and version bookkeeping costs no virtual
// time, so healthy replicated runs match the pre-quorum model exactly.

import (
	"math"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// ShardOf maps a page to its primary shard by striping page IDs across the K
// controllers. It is a pure function, so placement is identical across runs
// and across the layers (paging, pushdown gate, figures) that compute it.
func ShardOf(pg mem.PageID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(uint64(pg) % uint64(shards))
}

// ShardStat aggregates one shard's fault-domain activity.
type ShardStat struct {
	FailoverReads     int64 // accesses served by a replica while this primary was unusable
	ResyncPages       int64 // crash-journaled pages re-replicated on recovery
	Recoveries        int64 // re-sync replays performed
	Stalls            int64 // accesses stalled because no replica was usable either
	HandoffRecords    int64 // hinted-handoff records enqueued for this shard (partition-caused)
	HandoffReplays    int64 // hinted-handoff records delivered to this shard after a link heal
	PartitionHeals    int64 // anti-entropy sweeps that delivered hinted records to this shard
	ReadRepairs       int64 // stale copies on this shard repaired from a fresher replica
	StaleReadsAverted int64 // reads that would have served stale bytes without the version check
	QuorumStalls      int64 // writes (keyed by primary) stalled below the write quorum
}

// handoffRec is one pending repair for a shard that missed a write: the page,
// the version its copy must reach (0 = unconditional, used by the legacy
// write-failover journal), the shard that held the fresh copy when the record
// was journalled, and whether the miss was partition-caused (the target was
// up but unreachable — a hinted handoff) or crash-caused (plain re-sync).
type handoffRec struct {
	pg     mem.PageID
	ver    uint64
	src    int
	hinted bool
}

// resyncQueue is one shard's pending handoff/re-sync journal, in first-miss
// order with one record per page (a newer miss supersedes an older one).
type resyncQueue struct {
	recs []handoffRec
	seen map[mem.PageID]int // page → index into recs
}

// ComputePath lists what compute↔shard-s traffic depends on: shard s and
// both directions of its compute link. Paths feed UsableAt.
func ComputePath(s int) []fault.Component {
	return []fault.Component{fault.Shard(s), fault.Link(fault.EndpointCompute, s), fault.Link(s, fault.EndpointCompute)}
}

// pushPath lists what a one-way transfer src→tgt depends on: shard tgt and
// the src→tgt link direction (partitions are asymmetric, so only the sending
// direction matters). src is a shard for replica copies and EndpointCompute
// for fire-and-forget compute→shard writes.
func pushPath(src, tgt int) []fault.Component {
	return []fault.Component{fault.Shard(tgt), fault.Link(src, tgt)}
}

// never is a limit usableBy never reaches.
const never = sim.Time(math.MaxInt64)

// UsableAt returns the earliest instant ≥ at when every component on path is
// up.
func (m *Machine) UsableAt(path []fault.Component, at sim.Time) sim.Time {
	return m.usableBy(path, at, never)
}

// usable reports whether every component on path is up at ts.
func (m *Machine) usable(path []fault.Component, ts sim.Time) bool {
	return m.usableBy(path, ts, ts) == ts
}

// usableBy returns the earliest instant ≥ at when every component on path is
// up, or the first heal past limit once the search passes it. The walk
// restarts after every heal because a heal instant can land inside another
// blocking window (adjacent crash windows, or a crash overlapping a
// partition); schedules always heal, so the loop terminates. No component
// is queried past the returned instant, and a check with limit == at stops
// at the first component down: a boolean check extends no schedule past its
// own instant, which keeps the plan's generated-window Counters unchanged.
func (m *Machine) usableBy(path []fault.Component, at, limit sim.Time) sim.Time {
	for i := 0; i < len(path); {
		rec, down := m.Fault.DownAt(path[i], at)
		if !down {
			i++
			continue
		}
		if at = rec; at > limit {
			return at
		}
		i = 0
	}
	return at
}

// bumpPageVer advances pg's committed version and returns it (0 on
// unversioned pools). Version bookkeeping is pure metadata: it costs no
// virtual time, so healthy runs are unchanged by it.
func (m *Machine) bumpPageVer(pg mem.PageID) uint64 {
	if m.pageVer == nil {
		return 0
	}
	v := m.pageVer[pg] + 1
	m.pageVer[pg] = v
	return v
}

// copyVer returns the version of shard s's copy of pg.
func (m *Machine) copyVer(s int, pg mem.PageID) uint64 {
	if m.shardVer == nil {
		return 0
	}
	return m.shardVer[s][pg]
}

// setCopyVer records that shard s's copy of pg reached version v. Versions
// never regress.
func (m *Machine) setCopyVer(s int, pg mem.PageID, v uint64) {
	if m.shardVer == nil || v <= m.shardVer[s][pg] {
		return
	}
	m.shardVer[s][pg] = v
}

// AccessPage routes one compute↔pool page operation on pg and returns the
// shard that serves it. On single-shard pools it only performs the
// whole-controller outage stall (WaitPoolUp) and returns 0. On multi-shard
// pools it additionally: drains the serving shard's handoff/re-sync journal
// before the shard serves traffic, redirects to a usable replica when the
// primary is crashed or partitioned (one control round trip of failover
// latency, a "failover" span, and — for writes — a journal entry so the
// primary is repaired later), consults R′−1 extra replicas on quorum reads,
// read-repairs a stale serving copy from the freshest reachable replica, and
// stalls to the earliest member's heal when no replica is usable, exactly
// like a whole-controller outage.
func (m *Machine) AccessPage(t *sim.Thread, pg mem.PageID, write bool) int {
	m.WaitPoolUp(t)
	k := m.Cfg.Shards()
	if k <= 1 {
		//lint:allow timecharge single-shard healthy path is free by design: WaitPoolUp above charges any outage stall
		return 0
	}
	primary := ShardOf(pg, k)
	r := m.Cfg.EffReplicas()
	if m.usable(ComputePath(primary), t.Now()) {
		m.drainHandoff(t, primary)
		m.serveQuorumRead(t, pg, primary, primary, write)
		//lint:allow timecharge healthy-primary access is free by design: drain/consult/repair charge their own transfers
		return primary
	}
	for i := 1; i < r; i++ {
		s := (primary + i) % k
		if !m.usable(ComputePath(s), t.Now()) {
			continue
		}
		m.drainHandoff(t, s)
		sp := m.Tracer().Begin(t, trace.KindFailover, uint64(pg), int64(s))
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPageFault)
		m.Tracer().End(t, sp)
		m.ShardStats[primary].FailoverReads++
		m.Metrics.Counter("shard.failover").Inc()
		if write {
			m.journalHandoff(t, primary, pg, 0, s, false)
		}
		m.serveQuorumRead(t, pg, s, primary, write)
		return s
	}
	// No usable member: nowhere to get the page — stall to the earliest
	// instant any member of the replica set is usable again.
	m.ShardStats[primary].Stalls++
	start := t.Now()
	wake := sim.Time(-1)
	for i := 0; i < r; i++ {
		if at := m.UsableAt(ComputePath((primary+i)%k), start); wake < 0 || at < wake {
			wake = at
		}
	}
	t.AdvanceTo(wake)
	served := primary
	for i := 0; i < r; i++ {
		if s := (primary + i) % k; m.usable(ComputePath(s), t.Now()) {
			served = s
			break
		}
	}
	m.Times.Add(metrics.CompPoolStall, t.Now()-start)
	m.Metrics.Counter("shard.stall").Inc()
	m.drainHandoff(t, served)
	if served != primary && write {
		m.journalHandoff(t, primary, pg, 0, served, false)
	}
	m.serveQuorumRead(t, pg, served, primary, write)
	return served
}

// serveQuorumRead runs the read-side quorum protocol after routing resolved
// the serving shard: consult R′−1 other replicas so any committed write
// intersects the read set, then repair the serving copy if the version tags
// expose it as stale. Both steps are no-ops on legacy (R′ ≤ 1) configs and
// on writes (the write's own ReplicatePage commit refreshes the copy), so
// non-quorum runs are byte-identical to the pre-quorum model.
func (m *Machine) serveQuorumRead(t *sim.Thread, pg mem.PageID, served, primary int, write bool) {
	if write {
		return
	}
	m.consultReadQuorum(t, pg, served, primary)
	m.readRepair(t, pg, served, primary)
}

// consultReadQuorum charges the version probes of a quorum read: one control
// round trip on the replica class per extra replica consulted, stalling for
// the earliest heal when fewer than R′−1 other members are reachable (the
// read cannot rule out staleness without quorum overlap).
func (m *Machine) consultReadQuorum(t *sim.Thread, pg mem.PageID, served, primary int) {
	need := m.Cfg.EffReadQuorum() - 1
	if need <= 0 {
		return
	}
	k := m.Cfg.Shards()
	r := m.Cfg.EffReplicas()
	consulted := make([]bool, r)
	got := 0
	for i := 0; i < r && got < need; i++ {
		s := (primary + i) % k
		if s == served || !m.usable(ComputePath(s), t.Now()) {
			continue
		}
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassReplica)
		m.Metrics.Counter("shard.read-consult").Inc()
		consulted[i] = true
		got++
	}
	var stalled sim.Time
	for got < need {
		best, bestAt := -1, sim.Time(0)
		for i := 0; i < r; i++ {
			s := (primary + i) % k
			if s == served || consulted[i] {
				continue
			}
			if at := m.UsableAt(ComputePath(s), t.Now()); best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		before := t.Now()
		t.AdvanceTo(bestAt)
		stalled += t.Now() - before
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassReplica)
		m.Metrics.Counter("shard.read-consult").Inc()
		consulted[best] = true
		got++
	}
	if stalled > 0 {
		m.Times.Add(metrics.CompPoolStall, stalled)
		m.ShardStats[primary].QuorumStalls++
		m.Metrics.Counter("shard.quorum-stall").Inc()
	}
}

// readRepair compares the serving copy's version tag against the page's
// committed version and, when stale, fetches the page from the freshest
// reachable replica under a "read-repair" span before the read is served —
// the read observes committed bytes instead of stale ones. The committed
// writer's shard always holds the latest version, so a fresh source always
// exists; if it is momentarily unreachable the repair stalls for its heal.
func (m *Machine) readRepair(t *sim.Thread, pg mem.PageID, served, primary int) {
	if m.pageVer == nil {
		return
	}
	want := m.pageVer[pg]
	if want == 0 || m.copyVer(served, pg) >= want {
		return
	}
	m.ShardStats[served].StaleReadsAverted++
	m.Metrics.Counter("shard.stale-averted").Inc()
	k := m.Cfg.Shards()
	r := m.Cfg.EffReplicas()
	src := -1
	var stalled sim.Time
	for src < 0 {
		for i := 0; i < r; i++ {
			s := (primary + i) % k
			if s == served || m.copyVer(s, pg) < want {
				continue
			}
			if m.usable(pushPath(s, served), t.Now()) {
				src = s
				break
			}
		}
		if src >= 0 {
			break
		}
		wake := sim.Time(-1)
		for i := 0; i < r; i++ {
			s := (primary + i) % k
			if s == served || m.copyVer(s, pg) < want {
				continue
			}
			if at := m.UsableAt(pushPath(s, served), t.Now()); wake < 0 || at < wake {
				wake = at
			}
		}
		before := t.Now()
		t.AdvanceTo(wake)
		stalled += t.Now() - before
	}
	if stalled > 0 {
		m.Times.Add(metrics.CompPoolStall, stalled)
		m.ShardStats[primary].QuorumStalls++
		m.Metrics.Counter("shard.quorum-stall").Inc()
	}
	sp := m.Tracer().Begin(t, trace.KindReadRepair, uint64(pg), int64(served))
	m.Fabric.RoundTrip(t, ctrlMsgBytes, pageRespBytes, netmodel.ClassReplica)
	m.Tracer().End(t, sp)
	m.setCopyVer(served, pg, m.copyVer(src, pg))
	m.ShardStats[served].ReadRepairs++
	m.Metrics.Counter("shard.read-repair").Inc()
}

// ReplicatePage commits one page of data entering the pool on shard served
// under the write-quorum protocol: every other shard in pg's replica set
// either receives a copy on the replica traffic class (when reachable) or a
// handoff record — hinted when the shard is up but its link is partitioned,
// plain re-sync when it is crashed. With W ≤ 1 (the legacy regime) the write
// never stalls; with W > 1 it stalls until W copies have landed, delivering
// to pending members as their links heal. No-op without replication
// (Replicas ≤ 1), keeping unreplicated machines byte-identical.
func (m *Machine) ReplicatePage(t *sim.Thread, pg mem.PageID, served int) {
	r := m.Cfg.EffReplicas()
	if r <= 1 {
		//lint:allow timecharge unreplicated pools must stay byte-identical: the fan-out is a no-op by contract
		return
	}
	k := m.Cfg.Shards()
	primary := ShardOf(pg, k)
	ver := m.bumpPageVer(pg)
	m.setCopyVer(served, pg, ver)
	acked := 1
	var pending []int
	for i := 0; i < r; i++ {
		s := (primary + i) % k
		if s == served {
			continue
		}
		if m.usable(pushPath(served, s), t.Now()) {
			m.Fabric.Send(t, writebackBytes, netmodel.ClassReplica)
			m.Metrics.Counter("shard.replica-write").Inc()
			m.setCopyVer(s, pg, ver)
			acked++
			continue
		}
		_, down := m.Fault.DownAt(fault.Shard(s), t.Now())
		m.journalHandoff(t, s, pg, ver, served, !down)
		pending = append(pending, s)
	}
	w := m.Cfg.EffWriteQuorum()
	if acked >= w || len(pending) == 0 {
		//lint:allow timecharge journal-only fan-out: copies for unreachable replicas become handoff records, charged on replay
		return
	}
	// Below the write quorum: the write cannot commit on reachable copies
	// alone, so stall, delivering the copy to the pending member whose
	// path heals first until W acks are in. The handoff record a delivery
	// supersedes is retired by the version check on the next drain.
	m.ShardStats[primary].QuorumStalls++
	m.Metrics.Counter("shard.quorum-stall").Inc()
	var stalled sim.Time
	for acked < w && len(pending) > 0 {
		best, bestAt := -1, sim.Time(0)
		for j, s := range pending {
			if at := m.UsableAt(pushPath(served, s), t.Now()); best < 0 || at < bestAt {
				best, bestAt = j, at
			}
		}
		before := t.Now()
		t.AdvanceTo(bestAt)
		stalled += t.Now() - before
		s := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		m.Fabric.Send(t, writebackBytes, netmodel.ClassReplica)
		m.Metrics.Counter("shard.replica-write").Inc()
		m.setCopyVer(s, pg, ver)
		acked++
	}
	m.Times.Add(metrics.CompPoolStall, stalled)
	//lint:allow timecharge the stall loop always runs here (acked < W on entry) and AdvanceTo charges it
}

// serveShard resolves which shard receives page data for pg at ts without
// charging or stalling anything: the primary when up and reachable on the
// compute→shard direction, else the first such replica, else the primary
// (the transfer is buffered by the transport and the handoff journal repairs
// the rest). Eviction write-backs use it — they are fire-and-forget and must
// not stall the evicting thread.
func (m *Machine) serveShard(ts sim.Time, pg mem.PageID) int {
	k := m.Cfg.Shards()
	if k <= 1 {
		return 0
	}
	primary := ShardOf(pg, k)
	if m.usable(pushPath(fault.EndpointCompute, primary), ts) {
		return primary
	}
	for i := 1; i < m.Cfg.EffReplicas(); i++ {
		if s := (primary + i) % k; m.usable(pushPath(fault.EndpointCompute, s), ts) {
			return s
		}
	}
	return primary
}

// journalHandoff queues pg for re-replication to shard target once it is
// reachable again: target's copy must reach version ver (0 = unconditional),
// with src holding the fresh copy now. hinted marks partition-caused misses
// (the target was up), which replay under the anti-entropy span rather than
// the crash-recovery one. One record per page: a newer miss supersedes an
// older one.
func (m *Machine) journalHandoff(t *sim.Thread, target int, pg mem.PageID, ver uint64, src int, hinted bool) {
	q := &m.resync[target]
	if q.seen == nil {
		q.seen = make(map[mem.PageID]int)
	}
	if i, dup := q.seen[pg]; dup {
		if rec := &q.recs[i]; ver >= rec.ver {
			rec.ver, rec.src, rec.hinted = ver, src, hinted
		}
		return
	}
	q.seen[pg] = len(q.recs)
	q.recs = append(q.recs, handoffRec{pg: pg, ver: ver, src: src, hinted: hinted})
	m.handoffDepth++
	m.Metrics.Gauge("shard.handoff.depth").Set(m.handoffDepth)
	if hinted {
		m.ShardStats[target].HandoffRecords++
		m.Metrics.Counter("shard.handoff").Inc()
		m.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindHintedHandoff, Page: uint64(pg), Arg: int64(target), Who: t.Name()})
	}
}

// drainHandoff replays shard's pending handoff/re-sync journal before the
// shard serves traffic: records the shard's copy already caught up on are
// retired silently; records whose source (or any fresh-enough replica) can
// push to the shard are delivered — one page transfer each on the replica
// class — crash-origin records under a "shard-recover" span and hinted ones
// under a "shard-anti-entropy" span with a "partition-heal" marker;
// undeliverable records stay queued for a later sweep. Free when the journal
// is empty, so healthy runs are unaffected.
func (m *Machine) drainHandoff(t *sim.Thread, shard int) {
	q := &m.resync[shard]
	if len(q.recs) == 0 {
		return
	}
	now := t.Now()
	var crash, hinted, remain []handoffRec
	for _, rec := range q.recs {
		if rec.ver > 0 && m.copyVer(shard, rec.pg) >= rec.ver {
			m.handoffDepth-- // superseded: a later delivery already caught this copy up
			continue
		}
		src, sv := m.pickHandoffSource(rec, shard, now)
		if src < 0 {
			remain = append(remain, rec)
			continue
		}
		m.setCopyVer(shard, rec.pg, sv)
		if rec.hinted {
			hinted = append(hinted, rec)
		} else {
			crash = append(crash, rec)
		}
		m.handoffDepth--
	}
	if n := int64(len(crash)); n > 0 {
		sp := m.Tracer().Begin(t, trace.KindShardRecover, uint64(shard), n)
		for range crash {
			m.Fabric.Send(t, pageRespBytes, netmodel.ClassReplica)
		}
		m.Tracer().End(t, sp)
		m.ShardStats[shard].Recoveries++
		m.ShardStats[shard].ResyncPages += n
		m.Metrics.Counter("shard.resync-pages").Add(n)
		m.Metrics.Counter("shard.recovery").Inc()
	}
	if n := int64(len(hinted)); n > 0 {
		sp := m.Tracer().Begin(t, trace.KindShardAntiEntropy, uint64(shard), n)
		for range hinted {
			m.Fabric.Send(t, pageRespBytes, netmodel.ClassReplica)
		}
		m.Tracer().End(t, sp)
		m.Trace.Add(trace.Event{At: t.Now(), Kind: trace.KindPartitionHeal, Page: uint64(hinted[0].pg), Arg: int64(shard), Who: t.Name()})
		m.ShardStats[shard].HandoffReplays += n
		m.ShardStats[shard].PartitionHeals++
		m.Metrics.Counter("shard.handoff-replays").Add(n)
		m.Metrics.Counter("shard.partition-heal").Inc()
	}
	q.recs = remain
	if q.seen == nil {
		q.seen = make(map[mem.PageID]int)
	} else {
		clear(q.seen)
	}
	for i, rec := range remain {
		q.seen[rec.pg] = i
	}
	m.Metrics.Gauge("shard.handoff.depth").Set(m.handoffDepth)
}

// pickHandoffSource resolves which replica pushes rec's page to shard tgt at
// ts, preferring the journalled source and falling back to any replica whose
// copy is at least as fresh, in ring order; -1 when none is reachable. The
// second result is the version the chosen source delivers.
func (m *Machine) pickHandoffSource(rec handoffRec, tgt int, ts sim.Time) (int, uint64) {
	need := rec.ver
	if v := m.copyVer(rec.src, rec.pg); v > need {
		need = v
	}
	if m.copyVer(rec.src, rec.pg) >= need && m.usable(pushPath(rec.src, tgt), ts) {
		// The journalled source is itself up (a reachable crashed shard is
		// impossible) and holds the fresh copy: the common case.
		return rec.src, m.copyVer(rec.src, rec.pg)
	}
	k := m.Cfg.Shards()
	primary := ShardOf(rec.pg, k)
	for i := 0; i < m.Cfg.EffReplicas(); i++ {
		s := (primary + i) % k
		if s == tgt || s == rec.src || m.copyVer(s, rec.pg) < need {
			continue
		}
		if m.usable(pushPath(s, tgt), ts) {
			return s, m.copyVer(s, rec.pg)
		}
	}
	return -1, 0
}
