// Package advisor implements the paper's future-work item from §5.1/§7.4:
// automatically deciding which operators to push down. The paper profiles a
// query on the base DDC, ranks operators by *memory intensity* (remote
// memory accesses per second, RM/s) and observes that a fixed threshold —
// 80K RM/s on its testbed — separates the operators worth pushing from the
// ones where pushdown overhead and the memory pool's weaker CPU win
// ("Applying Teleport automatically while accounting for these parameters
// is a promising future direction").
//
// The advisor offers both that threshold rule and a cost-based estimate
// that prices each operator's pushdown against the hardware model: the
// remote traffic it would save versus the pushdown overhead and the clock
// difference it would pay.
package advisor

import (
	"fmt"
	"sort"

	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

// Config tunes the decision.
type Config struct {
	// ThresholdRMps pushes every operator whose profiled intensity exceeds
	// this many remote messages per second. Zero disables the threshold
	// rule in favour of the cost model.
	ThresholdRMps float64

	// MinBenefit is the cost model's floor: operators whose estimated
	// saving is below this are left in the compute pool (guards against
	// pushing trivially small operators whose call overhead dominates).
	MinBenefit sim.Time

	// TableEntries estimates the process's page-table size for the
	// per-call context-setup overhead (pages of the working set).
	TableEntries int64
}

// DefaultConfig mirrors the paper's testbed rule of thumb.
func DefaultConfig() Config {
	return Config{
		MinBenefit: 50 * sim.Microsecond,
	}
}

// Decision explains one operator's verdict.
type Decision struct {
	Operator  string
	Push      bool
	Intensity float64  // RM/s from the profiling run
	Saving    sim.Time // estimated net time saved by pushing (cost model)
	Reason    string
}

// String renders the decision.
func (d Decision) String() string {
	verb := "keep"
	if d.Push {
		verb = "push"
	}
	return fmt.Sprintf("%s %s (RM/s=%.0f, est. saving=%v): %s",
		verb, d.Operator, d.Intensity, d.Saving, d.Reason)
}

// Recommend analyses a base-DDC profile and returns the operators to push
// together with the per-operator reasoning. The profile must come from a
// run on the disaggregated platform (a local profile has no remote
// accesses to reason about).
func Recommend(prof []profile.OpStat, cfg Config, hwCfg *hw.Config) ([]string, []Decision) {
	decisions := make([]Decision, 0, len(prof))
	var push []string
	for _, op := range prof {
		d := decide(op, cfg, hwCfg)
		decisions = append(decisions, d)
		if d.Push {
			push = append(push, op.Name)
		}
	}
	sort.Slice(decisions, func(i, j int) bool {
		return decisions[i].Intensity > decisions[j].Intensity
	})
	return push, decisions
}

func decide(op profile.OpStat, cfg Config, hwCfg *hw.Config) Decision {
	d := Decision{Operator: op.Name, Intensity: op.Intensity()}
	d.Saving = EstimateSaving(op, cfg, hwCfg)
	if cfg.ThresholdRMps > 0 {
		d.Push = d.Intensity >= cfg.ThresholdRMps
		if d.Push {
			d.Reason = fmt.Sprintf("intensity above the %.0f RM/s threshold", cfg.ThresholdRMps)
		} else {
			d.Reason = "intensity below threshold"
		}
		return d
	}
	min := cfg.MinBenefit
	d.Push = d.Saving > min
	if d.Push {
		d.Reason = "estimated saving exceeds pushdown overhead"
	} else {
		d.Reason = fmt.Sprintf("estimated saving %v below the %v floor", d.Saving, min)
	}
	return d
}

// EstimateSaving prices pushing one operator using the hardware model:
//
//	saved  = remote messages it caused × (remote fault cost − local DRAM cost)
//	paid   = CPU share re-run at the memory clock + per-call overhead
//	       (request/response RPC + page-table clone)
//
// The estimate is deliberately simple — a real DDC-aware optimiser is the
// paper's future work — but it is derived from the same quantities the
// paper's RM/s heuristic uses, plus the clock ratio Figure 18 sweeps.
func EstimateSaving(op profile.OpStat, cfg Config, hwCfg *hw.Config) sim.Time {
	faultNs := hwCfg.RoundTripNs(64, mem.PageSize+32) + hwCfg.FaultHandleNs
	saved := float64(op.RemoteMsgs) / 2 * (faultNs - hwCfg.DRAMRandNs)

	// The CPU portion of the operator's time slows by the clock ratio when
	// executed in the memory pool. Approximate the CPU portion as what is
	// left after remote waiting.
	remoteNs := float64(op.RemoteMsgs) / 2 * faultNs
	cpuNs := float64(op.Time) - remoteNs
	if cpuNs < 0 {
		cpuNs = 0
	}
	ratio := hwCfg.ComputeClockGHz / hwCfg.MemoryClockGHz
	paid := cpuNs * (ratio - 1)

	// Per-call overhead: the pushdown RPC pair plus cloning the table.
	paid += hwCfg.MsgNs(512) + hwCfg.MsgNs(96)
	paid += hw.OpNs(hwCfg.MemoryClockGHz, float64(cfg.TableEntries)*hwCfg.PTEVisitOps) * float64(op.Calls)

	net := saved - paid
	if net < 0 {
		return -sim.FromNs(-net)
	}
	return sim.FromNs(net)
}
