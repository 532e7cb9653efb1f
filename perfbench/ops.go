package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"

	"teleport/internal/bench"
	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

// sizes are the dataset sizes the workloads are generated at. The program
// receives only what its generators make from these and the seed.
type sizes struct {
	Scale    float64 // TPC-H micro scale (olap) and cluster partition scale
	Words    int     // WordCount corpus tokens (chaos)
	GraphNV  int     // SSSP vertices (chaos)
	Machines int     // cluster machines
	Rounds   int     // cluster supersteps
}

func defaultSizes() sizes {
	return sizes{Scale: 1, Words: 120000, GraphNV: 15000, Machines: 16, Rounds: 4}
}

// Platforms an op runs on. local is the fault-free monolithic machine whose
// answers are the oracle; the other two are the measured disaggregated ones.
const (
	platLocal    = "local"
	platBase     = "base-ddc"
	platTeleport = "teleport"
)

// cacheFrac sizes the compute cache as a share of the loaded working set,
// as internal/bench does (the paper's 1 GB against a 50 GB database).
const cacheFrac = 0.02

// chaosProfile is the fault profile of the chaos workload; chaosPool is its
// pool: 4 shards, 3 replicas per page, write quorum 2.
const chaosProfile = "partition-chaos"

var chaosPool = struct{ shards, replicas, quorum int }{4, 3, 2}

// query is one data-intensive job the benchmark runs on a fresh machine.
type query struct {
	name string
	push []string // operators TELEPORT pushes: the sets internal/bench uses
	// cacheBytes pins the compute-cache size; 0 sizes it at cacheFrac of
	// the loaded working set.
	cacheBytes int64
	// build generates the query's input into p and returns the simulation
	// call plus a digest of the answer that call produced.
	build func(p *ddc.Process, sz sizes, seed int64) (run func(*profile.Exec), answer func() uint64)
}

func tpchQuery(name string, push []string, q func(*profile.Exec, *tpch.Data) []coldb.GroupRow) query {
	return query{name: name, push: push,
		build: func(p *ddc.Process, sz sizes, seed int64) (func(*profile.Exec), func() uint64) {
			d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: sz.Scale, Seed: seed})
			var rows []coldb.GroupRow
			return func(ex *profile.Exec) { rows = q(ex, d) },
				func() uint64 { return digestRows(rows) }
		}}
}

func olapQueries() []query {
	return []query{
		tpchQuery("Q9", []string{tpch.OpProjection, tpch.OpHashJoin, tpch.OpMergeJoin, tpch.OpExpression},
			func(ex *profile.Exec, d *tpch.Data) []coldb.GroupRow { return tpch.Q9(ex, d, tpch.GreenPart) }),
		tpchQuery("Q3", []string{tpch.OpSelection, tpch.OpHashJoin, tpch.OpExpression, tpch.OpGroup},
			func(ex *profile.Exec, d *tpch.Data) []coldb.GroupRow { return tpch.Q3(ex, d, 0, 1100) }),
		tpchQuery("Q6", []string{tpch.OpSelection, tpch.OpExpression},
			func(ex *profile.Exec, d *tpch.Data) []coldb.GroupRow {
				return []coldb.GroupRow{{Sum: tpch.Q6(ex, d, 730)}}
			}),
	}
}

func chaosQueries() []query {
	return []query{
		{name: "WordCount", push: []string{mapreduce.OpMapShuffle},
			build: func(p *ddc.Process, sz sizes, seed int64) (func(*profile.Exec), func() uint64) {
				c, _ := mapreduce.GenerateCorpus(p, mapreduce.CorpusConfig{Words: sz.Words, Vocab: 4000, Seed: seed})
				eng := mapreduce.NewEngine(c, mapreduce.WordCount{}, 4, 8)
				return func(ex *profile.Exec) { eng.Run(ex) },
					func() uint64 { return digestKVs(eng.Results()) }
			}},
		{name: "SSSP", push: []string{graph.OpFinalize, graph.OpScatter, graph.OpGather},
			cacheBytes: 540 << 10,
			build: func(p *ddc.Process, sz sizes, seed int64) (func(*profile.Exec), func() uint64) {
				g, _ := graph.Generate(p, graph.GenConfig{NV: sz.GraphNV, AvgDegree: 6, Seed: seed})
				eng := graph.NewEngine(g, graph.SSSP(0), 4)
				return func(ex *profile.Exec) { eng.Run(ex) },
					func() uint64 {
						env := p.NewEnv(sim.NewThread("verify"))
						vals := make([]uint64, sz.GraphNV)
						for v := range vals {
							vals[v] = uint64(eng.Value(env, v))
						}
						return digestWords(vals)
					}
			}},
	}
}

// opResult is what one op produced and what it cost the host.
type opResult struct {
	rec    record
	answer uint64
	virt   sim.Time
	// setup and sim are host seconds in the datagen and machine spans and
	// in the simulation call: CPU time on olap and chaos, which simulate on
	// one goroutine, wall time (less steal) on cluster, whose parallel
	// execution CPU time cannot show.
	setup, sim float64
	// pushE2E is the traced op's virtual push end-to-end histogram.
	pushE2E *metrics.HistogramSnapshot
	err     error // cluster: RunCluster's own failure
}

// runQuery is one hermetic execution of q on platform: a fresh machine, a
// freshly generated input and an empty cache.
func (r *runner) runQuery(q *query, platform string, seed int64, traced bool) opResult {
	var (
		res    opResult
		m      *ddc.Machine
		p      *ddc.Process
		reg    *metrics.Registry
		ex     *profile.Exec
		rt     *core.Runtime
		run    func(*profile.Exec)
		answer func() uint64
	)
	s := r.tr.startOp(q.name+"/"+platform, traced)
	res.setup += s.phase("machine", func() {
		m = ddc.MustMachine(r.machineConfig(platform))
		if traced {
			reg = metrics.NewRegistry()
			m.AttachMetrics(reg)
		}
		if r.wl.chaos && m.Cfg.Disaggregated {
			prof, err := fault.ByName(chaosProfile)
			if err != nil {
				panic(err) // a built-in profile name
			}
			m.AttachFault(fault.NewPlan(prof, chaosSeedFor(seed)))
		}
		p = m.NewProcess()
	}).cpu
	res.setup += s.phase("datagen", func() { run, answer = q.build(p, r.cfg.sizes, seed) }).cpu
	res.setup += s.phase("machine", func() {
		if m.Cfg.Disaggregated {
			bytes := q.cacheBytes
			if bytes == 0 {
				bytes = int64(float64(p.Space.Allocated()) * cacheFrac)
			}
			p.ResizeCache(max(bytes, 48*mem.PageSize))
		}
		if platform == platTeleport {
			rt = core.NewRuntime(p, 1)
		}
		ex = profile.NewExec(sim.NewThread(q.name), p, rt)
		ex.Push(q.push...)
	}).cpu
	res.sim = s.phase("engine", func() { run(ex) }).cpu
	s.phase("verify", func() {
		res.virt = ex.Total()
		res.rec = ddcRecord(m, p, rt, ex)
		res.answer = answer()
		res.rec["answer"] = int64(res.answer)
		if snap := reg.Snapshot(); snap != nil {
			if h, ok := snap.Histograms["push.e2e.ns"]; ok {
				res.pushE2E = &h
			}
		}
	})
	s.end()
	return res
}

func (r *runner) machineConfig(platform string) ddc.Config {
	if platform == platLocal {
		return ddc.Linux()
	}
	cfg := ddc.BaseDDC(1 << 20) // the cache is resized once the input is loaded
	if r.wl.chaos {
		cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = chaosPool.shards, chaosPool.replicas, chaosPool.quorum
	}
	return cfg
}

// runCluster is one bench.RunCluster call at the given sim worker count.
// RunCluster generates its partitions inside the call and fails if the
// aggregate it computes differs from the one it expects, so the op has
// next to no set-up outside it: only building the options. The call's host
// time is its wall time less the most any one CPU was stolen meanwhile: on
// a shared 2-vCPU virtual machine, steal moved a run's median wall time by
// up to 75% from one minute to the next, and what is left by about 10%.
func (r *runner) runCluster(workers int, seed int64, traced bool) opResult {
	var (
		res  opResult
		opts bench.Options
		cr   bench.ClusterResult
	)
	s := r.tr.startOp(clusterOp, traced)
	res.setup = s.phase("machine", func() {
		opts = bench.Options{Scale: r.cfg.sizes.Scale, Seed: seed, SimWorkers: workers}
	}).wall
	steal := cpuSteal()
	res.sim = s.phase("engine", func() {
		cr, res.err = bench.RunCluster(opts, r.cfg.sizes.Machines, r.cfg.sizes.Rounds)
	}).wall - maxStolen(steal, cpuSteal()).Seconds()
	s.phase("verify", func() {
		res.virt = sim.Time(cr.Nanos)
		res.rec = record{"vt.ns": cr.Nanos}
		addFields(res.rec, "cluster.", cr)
		res.answer = cr.Sum
	})
	s.end()
	return res
}

// clusterOp names the cluster workload's one op at every worker count, so
// the 1-worker run is the record the parallel runs must equal.
const clusterOp = "RunCluster"

// clusterRows mirrors bench.RunCluster's per-machine partition size.
func clusterRows(scale float64) int { return max(int(240000*scale), 4096) }

// record is an op's deterministic model output: virtual times and every
// counter the layers expose. Passes, traced and untraced runs, and cluster
// runs at any worker count must produce identical records.
type record map[string]int64

func ddcRecord(m *ddc.Machine, p *ddc.Process, rt *core.Runtime, ex *profile.Exec) record {
	rec := record{
		"vt.ns":              int64(ex.Total()),
		"vt.thread_ns":       int64(ex.T.Now()),
		"machine.PoolStalls": m.PoolStalls,
	}
	var attributed sim.Time
	for c := metrics.Comp(0); c < metrics.NumComps; c++ {
		rec["time."+c.String()] = m.Times[c]
		attributed += sim.Time(m.Times[c])
	}
	rec["vt.compute_ns"] = int64(ex.Total() - attributed)
	addFields(rec, "proc.", p.Stats())
	addFields(rec, "net.", m.Fabric.Total())
	for _, st := range m.ShardStats {
		addFields(rec, "shard.", st)
	}
	if m.Fault != nil {
		addFields(rec, "fault.", m.Fault.Counters())
	}
	if rt != nil {
		addFields(rec, "core.", rt.Stats())
	}
	return rec
}

// addFields adds every integer field of struct v (and every element of an
// integer slice or array field, suffixed with its index) to rec under
// prefix+name.
func addFields(rec record, prefix string, v any) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		name := prefix + rv.Type().Field(i).Name
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Slice, reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if n, ok := intValue(f.Index(j)); ok {
					rec[fmt.Sprintf("%s.%d", name, j)] += n
				}
			}
		default:
			if n, ok := intValue(f); ok {
				rec[name] += n
			}
		}
	}
}

func intValue(v reflect.Value) (int64, bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int(), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int64(v.Uint()), true
	}
	return 0, false
}

// diff returns the first key, in sorted order, on which got differs from
// want, considering want's keys only (counters a later program adds do
// not break an older reference).
func (want record) diff(got record) (string, bool) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Sprintf("%s = %d, want %d", k, g, want[k]), true
		}
	}
	return "", false
}

func digestWords(ws []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

// digestRows hashes a group-by result independent of row order.
func digestRows(rows []coldb.GroupRow) uint64 {
	rows = append([]coldb.GroupRow(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	ws := make([]uint64, 0, 3*len(rows))
	for _, r := range rows {
		ws = append(ws, uint64(r.Key), math.Float64bits(r.Sum), uint64(r.Count))
	}
	return digestWords(ws)
}

// digestKVs hashes a MapReduce result independent of row order.
func digestKVs(kvs []mapreduce.KV) uint64 {
	kvs = append([]mapreduce.KV(nil), kvs...)
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].K < kvs[j].K })
	ws := make([]uint64, 0, 2*len(kvs))
	for _, kv := range kvs {
		ws = append(ws, uint64(kv.K), uint64(kv.V))
	}
	return digestWords(ws)
}
