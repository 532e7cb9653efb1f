package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/sim"
)

type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the simulator waits for and pays, from
// the untraced run. Host time throughout: CPU time on olap and chaos, wall
// time on cluster.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},             // median per pass: datagen + machine building
	{"sim_ms.p50", "ms"},         // median over passes of the pass's mean ms per simulation call
	{"sim_ms.tail", "ms"},        // highest percentile over simulation calls with ≥10 calls beyond it
	{"virt_s_per_host_s", "s/s"}, // virtual s simulated per host s of simulation
	{"peak_rss_mb", "MB"},        // median over passes of the pass's peak resident memory
}

// perLayerDefs are the traced run's metrics: host self time by package,
// the counters each layer exposes (per pass), virtual-time attribution
// (per pass) and the benchmark's own spans.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + ".self_s", "s"})
	}
	return append(defs, []metricDef{
		{"host.total_s", "s"},
		{"ddc.cache_hits", "count"},
		{"ddc.cache_misses", "count"},
		{"ddc.hit_ratio", "ratio"},
		{"ddc.remote_faults", "count"},
		{"ddc.prefetched", "count"},
		{"ddc.writebacks", "count"},
		{"ddc.upgrades", "count"},
		{"ddc.pool_stalls", "count"},
		{"net.msgs", "count"},
		{"net.bytes", "B"},
		{"net.retries", "count"},
		{"net.drops", "count"},
		{"fault.injected", "count"},
		{"shard.failover_reads", "count"},
		{"shard.read_repairs", "count"},
		{"shard.handoff_records", "count"},
		{"shard.handoff_replays", "count"},
		{"shard.quorum_stalls", "count"},
		{"shard.stalls", "count"},
		{"core.calls", "count"},
		{"core.compute_faults", "count"},
		{"core.coherence_msgs", "count"},
		{"core.retries", "count"},
		{"core.local_fallbacks", "count"},
		{"core.pushed_ratio", "ratio"},
		{"core.rollbacks", "count"},
		{"core.rolled_back_pages", "count"},
		{"core.quorum_lost", "count"},
		{"vt.push_e2e_us.p50", "us"},
		{"vt.push_e2e_us.p99", "us"},
		{"sim.switches", "count"},
		{"cluster.sync_msgs", "count"},
		{"cluster.sync_retries", "count"},
		{"sim.seq_ms", "ms"},
		{"sim.speedup", "x"},
		{"cluster.setup_share", "ratio"},
		{"alloc.mallocs_per_op", "count"},
		{"alloc.bytes_per_op", "B"},
		{"gc.cycles", "count"},
		{"gc.pause_ms", "ms"},
		{"vt.total_ms", "ms"},
		{"vt.net_ms", "ms"},
		{"vt.paging_ms", "ms"},
		{"vt.pushdown_ms", "ms"},
		{"vt.ssd_ms", "ms"},
		{"vt.compute_ms", "ms"},
		{"span.datagen_s", "s"},
		{"span.machine_s", "s"},
		{"span.engine_s", "s"},
		{"span.verify_s", "s"},
		{"trace.overhead_pct", "%"},
	}...)
}

func endToEnd(passes []passStats) outcome {
	var setups, passMs, opMs, rss []float64
	var virt sim.Time
	var host float64
	for _, ps := range passes {
		setups = append(setups, ps.setup)
		rss = append(rss, ps.peakRSS)
		passMs = append(passMs, ps.meanMs())
		opMs = append(opMs, ps.opMs...)
		virt += ps.virt
		host += ps.sim
	}
	tailMs, tailPct := tail(opMs)
	return outcome{
		metrics: map[string]float64{
			"setup_s":           median(setups),
			"sim_ms.p50":        median(passMs),
			"sim_ms.tail":       tailMs,
			"virt_s_per_host_s": virt.Seconds() / host,
			"peak_rss_mb":       median(rss),
		},
		notes: []string{fmt.Sprintf("sim_ms: %d measured passes, %d ops; sim_ms.tail is p%.1f of the ops", len(passes), len(opMs), tailPct)},
	}
}

func perLayer(plain, traced []passStats, seqMs []float64, prof *hostProfile) outcome {
	m := map[string]float64{}
	n := float64(len(traced))
	for _, l := range hostLayers {
		m["host."+l+".self_s"] = float64(prof.layerNs[l]) / 1e9 / n
	}
	m["host.total_s"] = float64(prof.totalNs) / 1e9 / n

	// Counters come from the first traced pass, on the run's first input
	// set, so they repeat exactly from run to run of the same seed.
	first := traced[0]
	rec := first.rec
	c := func(k string) float64 { return float64(rec[k]) }
	m["ddc.cache_hits"] = c("proc.CacheHits")
	m["ddc.cache_misses"] = c("proc.CacheMisses")
	m["ddc.hit_ratio"] = ratio(c("proc.CacheHits"), c("proc.CacheHits")+c("proc.CacheMisses"))
	m["ddc.remote_faults"] = c("proc.RemoteFaults")
	m["ddc.prefetched"] = c("proc.Prefetched")
	m["ddc.writebacks"] = c("proc.Writebacks")
	m["ddc.upgrades"] = c("proc.Upgrades")
	m["ddc.pool_stalls"] = c("machine.PoolStalls") + c("cluster.PoolStalls")
	m["net.msgs"] = c("net.Msgs")
	m["net.bytes"] = c("net.Bytes")
	m["net.retries"] = c("net.Retries")
	m["net.drops"] = c("net.Drops")
	m["shard.failover_reads"] = c("shard.FailoverReads")
	m["shard.read_repairs"] = c("shard.ReadRepairs")
	m["shard.handoff_records"] = c("shard.HandoffRecords")
	m["shard.handoff_replays"] = c("shard.HandoffReplays")
	m["shard.quorum_stalls"] = c("shard.QuorumStalls")
	m["shard.stalls"] = c("shard.Stalls")
	m["core.calls"] = c("core.Calls")
	m["core.compute_faults"] = c("core.ComputeFaults")
	m["core.coherence_msgs"] = c("core.CoherenceMsgs")
	m["core.retries"] = c("core.Retries")
	m["core.local_fallbacks"] = c("core.LocalFallbacks")
	m["core.pushed_ratio"] = ratio(c("core.Calls")-c("core.LocalFallbacks"), c("core.Calls"))
	m["core.rollbacks"] = c("core.Rollbacks")
	m["core.rolled_back_pages"] = c("core.RolledBackPages")
	m["core.quorum_lost"] = c("core.QuorumLostObserved")
	m["sim.switches"] = c("cluster.Switches")
	m["cluster.sync_msgs"] = c("cluster.SyncMsgs")
	m["cluster.sync_retries"] = c("cluster.SyncRetries")
	var injected int64
	for _, k := range sortedKeys(rec) {
		if strings.HasPrefix(k, "fault.") {
			injected += rec[k]
		}
	}
	m["fault.injected"] = float64(injected)

	m["vt.total_ms"] = c("vt.ns") / 1e6
	m["vt.compute_ms"] = c("vt.compute_ns") / 1e6
	for comp := metrics.Comp(0); comp < metrics.NumComps; comp++ {
		m["vt."+comp.Layer()+"_ms"] += c("time."+comp.String()) / 1e6
	}
	if first.push != nil && first.push.Count > 0 {
		p := obs.FromHistogram(*first.push)
		m["vt.push_e2e_us.p50"] = p.P50 / 1e3
		m["vt.push_e2e_us.p99"] = p.P99 / 1e3
	}

	var ops, mallocs, allocBytes, gcPause float64
	var plainMs, tracedMs []float64
	phases := map[string][]float64{}
	for _, ps := range traced {
		ops += float64(ps.ops)
		mallocs += float64(ps.mallocs)
		allocBytes += float64(ps.allocBytes)
		m["gc.cycles"] += float64(ps.gcCycles) / n
		gcPause += float64(ps.gcPauseNs)
		tracedMs = append(tracedMs, ps.meanMs())
		for _, ph := range []string{"datagen", "machine", "engine", "verify"} {
			phases[ph] = append(phases[ph], ps.phases[ph])
		}
	}
	for _, ps := range plain {
		plainMs = append(plainMs, ps.meanMs())
	}
	m["alloc.mallocs_per_op"] = mallocs / ops
	m["alloc.bytes_per_op"] = allocBytes / ops
	m["gc.pause_ms"] = gcPause / 1e6 / n
	for _, ph := range []string{"datagen", "machine", "engine", "verify"} {
		m["span."+ph+"_s"] = median(phases[ph])
	}
	m["trace.overhead_pct"] = (median(tracedMs)/median(plainMs) - 1) * 100
	if len(seqMs) > 0 {
		m["sim.seq_ms"] = median(seqMs)
		m["sim.speedup"] = median(seqMs) / median(plainMs)
		m["cluster.setup_share"] = ratio(float64(prof.clusterSetupNs), float64(prof.clusterNs))
	}
	return outcome{
		metrics: m,
		notes: []string{fmt.Sprintf("traced: %d traced and %d untraced passes; host.* are CPU s per traced pass (%.3f s sampled in all)",
			len(traced), len(plain), float64(prof.totalNs)/1e9)},
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys(r record) []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the middle of xs (the mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile; with ten or fewer samples, the maximum.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 11
	return s[k], 100 * float64(k) / float64(n-1)
}

// mergeHist adds histogram b into a (same buckets) and returns the sum.
func mergeHist(a, b *metrics.HistogramSnapshot) *metrics.HistogramSnapshot {
	if b == nil {
		return a
	}
	if a == nil {
		c := *b
		c.Counts = append([]int64(nil), b.Counts...)
		return &c
	}
	if b.Count > 0 {
		if a.Count == 0 || b.MinNs < a.MinNs {
			a.MinNs = b.MinNs
		}
		if a.Count == 0 || b.MaxNs > a.MaxNs {
			a.MaxNs = b.MaxNs
		}
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.SumNs += b.SumNs
	return a
}

// resetPeakRSS restarts the kernel's peak-resident-set mark of the process
// from its current resident set (Linux 4.0 and later). Where it cannot, the
// next peakRSSMB reads the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since it started or since
// resetPeakRSS, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the host every number was measured on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
