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
	register("A6", figAvailability)
}

// availPoint is one availability cell: Q6 on a sharded pool under per-shard
// outages, with the answer retained for the correctness column.
type availPoint struct {
	ans       uint64
	elapsed   sim.Time
	failovers int64
	resync    int64
	stalls    int64
	fallbacks int64
	degraded  sim.Time // union of all outage windows through the run
}

// figAvailability is an extension for the sharded pool: Q6 on TELEPORT over
// a 4-shard memory pool, sweeping the replication factor against the
// per-shard outage rate. Every cell must produce the fault-free answer; what
// varies is how — replicas ≥ 2 absorb single-shard outages as failover reads
// in degraded mode, while an unreplicated pool must stall for restarts (or
// shed pushdowns to local execution) whenever a shard holding resident
// pages is down.
func figAvailability(opts Options) *Table {
	t := &Table{
		Figure: "Ext A6",
		Title:  "Availability under shard outages: Q6 on a 4-shard pool, replicas × outage rate",
		Header: []string{"replicas", "shard-outage", "correct", "failover-reads", "resync-pages", "stalls", "fallbacks", "degraded", "slowdown"},
	}
	const shards = 4
	rates := []struct {
		name   string
		meanUp sim.Time
	}{
		{"light (~2.4%)", 2 * sim.Millisecond},
		{"heavy (~9.1%)", 500 * sim.Microsecond},
	}
	replicas := []int{1, 2, 3}

	runCell := func(reps int, prof *fault.Profile) availPoint {
		cfg := ddc.BaseDDC(1 << 20)
		cfg.PoolShards = shards
		cfg.Replicas = reps
		m := ddc.MustMachine(cfg)
		if prof != nil {
			m.AttachFault(fault.NewPlan(*prof, opts.Seed))
		}
		p := m.NewProcess()
		th := sim.NewThread("A6")
		d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: opts.Scale / 4, Seed: opts.Seed})
		ws := p.Space.Allocated()
		p.ResizeCache(cacheBytes(ws, 0.02))
		p.ResizePool(ws / 2)
		rt := core.NewRuntime(p, 1)
		ex := profile.NewExec(th, p, rt)
		ex.Push(q6Push...)
		ans := tpch.Q6(ex, d, 730)
		end := th.Now()
		pt := availPoint{
			ans:       math.Float64bits(ans),
			elapsed:   ex.Total(),
			fallbacks: rt.Stats().LocalFallbacks,
		}
		var all []fault.Window
		for s := 0; s < shards; s++ {
			if m.ShardStats != nil {
				st := m.ShardStats[s]
				pt.failovers += st.FailoverReads
				pt.resync += st.ResyncPages
				pt.stalls += st.Stalls
			}
			all = append(all, m.Fault.Through(fault.Shard(s), end)...)
		}
		all = append(all, m.Fault.Through(fault.Pool(), end)...)
		pt.degraded = fault.UnionDowntime(all, end)
		return pt
	}

	jobs := []func() availPoint{func() availPoint { return runCell(1, nil) }}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:          fmt.Sprintf("shard-flap-%v", rate.meanUp),
			ShardMeanUp:   rate.meanUp,
			ShardMeanDown: 50 * sim.Microsecond,
		}
		for _, reps := range replicas {
			prof := prof
			reps := reps
			jobs = append(jobs, func() availPoint { return runCell(reps, &prof) })
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, reps := range replicas {
			pt := pts[i]
			i++
			correct := "yes"
			if pt.ans != base.ans {
				correct = "NO"
			}
			t.AddRow(fmt.Sprintf("%d", reps), rate.name, correct,
				fmt.Sprintf("%d", pt.failovers), fmt.Sprintf("%d", pt.resync),
				fmt.Sprintf("%d", pt.stalls), fmt.Sprintf("%d", pt.fallbacks),
				fmt.Sprintf("%.1f%%", 100*float64(pt.degraded)/float64(pt.elapsed)),
				fx(ratio(pt.elapsed, base.elapsed)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (faults never change answers); replication converts shard-outage stalls into failover reads",
		"degraded = fraction of virtual time at least one shard (or the controller) was down; slowdown vs the fault-free run")
	return t
}
