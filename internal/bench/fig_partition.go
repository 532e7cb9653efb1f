package bench

import (
	"fmt"
	"math"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

func init() {
	register("A7", figPartition)
}

// partPoint is one partition cell: Q6 on a replicated sharded pool under
// asymmetric link partitions, with the answer retained for the correctness
// column.
type partPoint struct {
	ans      uint64
	elapsed  sim.Time
	handoffs int64
	replays  int64
	repairs  int64
	stale    int64
	qstalls  int64
	qlost    int64
	cut      sim.Time // union of all link-outage windows through the run
}

// figPartition is an extension for partition tolerance: Q6 on TELEPORT over
// a 4-shard, 3-replica pool, sweeping the write quorum W against the link
// partition rate. Every cell must produce the fault-free answer; what varies
// is the price of consistency — W=1 commits on any reachable copy and leans
// on hinted handoff and read-repair to converge, while W≥2 stalls writes
// below quorum and sheds pushdowns with ErrQuorumLost until links heal.
func figPartition(opts Options) *Table {
	t := &Table{
		Figure: "Ext A7",
		Title:  "Partition tolerance: Q6 on a 4-shard 3-replica pool, write quorum × partition rate",
		Header: []string{"write-quorum", "partition", "correct", "handoffs", "replays", "read-repairs", "stale-averted", "quorum-stalls", "quorum-lost", "partitioned", "slowdown"},
	}
	const shards, replicas = 4, 3
	rates := []struct {
		name   string
		meanUp sim.Time
	}{
		{"light (~4.8%)", 3 * sim.Millisecond},
		{"heavy (~16.7%)", 750 * sim.Microsecond},
	}
	quorums := []int{1, 2, 3}

	runCell := func(w int, prof *fault.Profile) partPoint {
		cfg := ddc.BaseDDC(1 << 20)
		cfg.PoolShards = shards
		cfg.Replicas = replicas
		cfg.WriteQuorum = w
		m := ddc.MustMachine(cfg)
		if prof != nil {
			m.AttachFault(fault.NewPlan(*prof, opts.Seed))
		}
		p := m.NewProcess()
		th := sim.NewThread("A7")
		d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: opts.Scale / 4, Seed: opts.Seed})
		ws := p.Space.Allocated()
		p.ResizeCache(cacheBytes(ws, 0.02))
		p.ResizePool(ws / 2)
		rt := core.NewRuntime(p, 1)
		ex := profile.NewExec(th, p, rt)
		ex.Push(q6Push...)
		ans := tpch.Q6(ex, d, 730)
		end := th.Now()
		pt := partPoint{
			ans:     math.Float64bits(ans),
			elapsed: ex.Total(),
			qlost:   rt.Stats().QuorumLostObserved,
		}
		for s := 0; s < shards; s++ {
			if m.ShardStats != nil {
				st := m.ShardStats[s]
				pt.handoffs += st.HandoffRecords
				pt.replays += st.HandoffReplays
				pt.repairs += st.ReadRepairs
				pt.stale += st.StaleReadsAverted
				pt.qstalls += st.QuorumStalls
			}
		}
		pt.cut = linkDowntime(m.Fault, shards, end)
		return pt
	}

	jobs := []func() partPoint{func() partPoint { return runCell(1, nil) }}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:         fmt.Sprintf("partition-%v", rate.meanUp),
			LinkMeanUp:   rate.meanUp,
			LinkMeanDown: 150 * sim.Microsecond,
		}
		for _, w := range quorums {
			prof := prof
			w := w
			jobs = append(jobs, func() partPoint { return runCell(w, &prof) })
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, w := range quorums {
			pt := pts[i]
			i++
			correct := "yes"
			if pt.ans != base.ans {
				correct = "NO"
			}
			t.AddRow(fmt.Sprintf("%d", w), rate.name, correct,
				fmt.Sprintf("%d", pt.handoffs), fmt.Sprintf("%d", pt.replays),
				fmt.Sprintf("%d", pt.repairs), fmt.Sprintf("%d", pt.stale),
				fmt.Sprintf("%d", pt.qstalls), fmt.Sprintf("%d", pt.qlost),
				fmt.Sprintf("%.1f%%", 100*float64(pt.cut)/float64(pt.elapsed)),
				fx(ratio(pt.elapsed, base.elapsed)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (partitions never change answers); version tags turn would-be stale reads into read-repairs",
		"partitioned = fraction of virtual time at least one directed link was severed; slowdown vs the fault-free W=1 run")
	return t
}

// linkDowntime is the length of the union of every directed link's outage
// windows on a pool of shards through end — compute↔shard and shard↔shard,
// both directions — the "partitioned" figure. Endpoints are visited in a
// fixed order, so the schedule extension it forces is deterministic.
func linkDowntime(p *fault.Plan, shards int, end sim.Time) sim.Time {
	var ws []fault.Window
	for from := fault.EndpointCompute; from < shards; from++ {
		for to := fault.EndpointCompute; to < shards; to++ {
			if from != to {
				ws = append(ws, p.Through(fault.Link(from, to), end)...)
			}
		}
	}
	return fault.UnionDowntime(ws, end)
}
