// Command perfbench is the simulator's host-time benchmark. It runs one
// workload for a fixed time in a closed loop, checks every op's answer and
// model output, and prints its metrics by name and unit, the last line as
// one JSON object. From the repository root:
//
//	bash perfbench/run.sh --workload olap --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer ones. NOTES.md describes the
// workloads, the metrics and how they relate.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// defaultSeed is the seed the golden records were taken at.
const defaultSeed = 1

// workload is one set of ops a run repeats.
type workload struct {
	name    string
	queries []query // each runs on every platform in measured; nil on cluster
	chaos   bool    // partition-chaos on a sharded, replicated pool
}

func workloads() []workload {
	return []workload{
		{name: "olap", queries: olapQueries()},
		{name: "chaos", queries: chaosQueries(), chaos: true},
		{name: "cluster"},
	}
}

// measured are the platforms a query op runs on.
var measured = []string{platBase, platTeleport}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the measured passes run
	trace    bool
	sizes    sizes
	golden   *goldenSet // nil skips the golden check
	out      string     // artifact directory; "" writes none
}

// runner executes one run and keeps its checks.
type runner struct {
	cfg       config
	wl        workload
	inputs    []int64 // the input seeds passes cycle through
	workers   int     // sim workers of the measured cluster op
	tr        *tracer
	log       io.Writer
	ref       map[string]uint64 // query@seed → answer digest on the local platform
	refDone   map[int64]bool    // input seeds whose reference has run
	first     map[string]record // op@seed → the first record this run produced
	attempted int
	failed    int
	cpu       []string // traced run: the CPU profile file of each traced pass
}

func newRunner(cfg config, log io.Writer) (*runner, error) {
	for _, w := range workloads() {
		if w.name == cfg.workload {
			return &runner{
				cfg: cfg, wl: w,
				inputs:  inputSeeds(cfg.seed),
				workers: runtime.NumCPU(),
				tr:      newTracer(w.name),
				log:     log,
				ref:     map[string]uint64{},
				refDone: map[int64]bool{},
				first:   map[string]record{},
			}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have olap, chaos, cluster)", cfg.workload)
}

// inputSets is how many input sets a run cycles through, so that its
// medians average over many datasets and fault schedules rather than hang
// on a few: on chaos, a run's median moved about 15% from seed to seed
// with 7 input sets per run, and an op's time on one input set differs
// from the next by up to 40%. A 30-second run reaches about 15 (chaos) to
// 25 (olap) of them.
const inputSets = 32

// inputSeeds derives a run's input seeds from the workload seed; distinct
// workload seeds give disjoint sets.
func inputSeeds(seed int64) []int64 {
	out := make([]int64, inputSets)
	for k := range out {
		out[k] = seed*inputSets + int64(k)
	}
	return out
}

// chaosSeedFor derives a fault plan's seed from an input seed.
func chaosSeedFor(seed int64) int64 { return seed*1000003 + 7 }

// key names an op or a query on one input set.
func key(name string, seed int64) string { return fmt.Sprintf("%s@%d", name, seed) }

// check counts one op (op@seed) and fails it if its answer differs from the
// local platform's for the same query (query@seed), if its model output
// differs from the first run of the same op in this process (passes, traced
// and untraced, 1 and n sim workers), or if it differs from the golden
// record.
func (r *runner) check(op, query string, res opResult) {
	r.attempted++
	why := ""
	if res.err != nil {
		why = res.err.Error()
	} else if want, ok := r.ref[query]; ok && res.answer != want {
		why = fmt.Sprintf("answer %#x, local platform %#x", res.answer, want)
	} else if first, ok := r.first[op]; !ok {
		r.first[op] = res.rec
	} else if d, bad := first.diff(res.rec); bad {
		why = "model output differs from the run's first op: " + d
	}
	if why == "" && r.cfg.golden != nil {
		if d, bad := r.cfg.golden.diff(op, res.rec); bad {
			why = d
		}
	}
	if why != "" {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s %s: %s\n", r.wl.name, op, why)
	}
}

// passStats is one pass over the workload's ops.
type passStats struct {
	ops    int
	setup  float64   // host s in datagen and machine building
	sim    float64   // host s in simulation calls
	opMs   []float64 // host ms of each simulation call
	virt   sim.Time  // virtual time those calls simulated
	rec    record    // model counters summed over the ops
	push   *metrics.HistogramSnapshot
	phases map[string]float64
	// peakRSS is the peak resident set reached during the pass, MiB.
	peakRSS float64

	// Traced passes only.
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
}

// meanMs is the pass's mean host ms per simulation call.
func (ps passStats) meanMs() float64 { return ps.sim * 1000 / float64(ps.ops) }

// pass runs every op of the workload once, in order, on the input set of
// seed. workers is the sim worker count of a cluster op.
func (r *runner) pass(name string, traced bool, workers int, seed int64) passStats {
	ps := passStats{rec: record{}}
	add := func(op, query string, res opResult) {
		r.check(op, query, res)
		ps.ops++
		ps.setup += res.setup
		ps.sim += res.sim
		ps.opMs = append(ps.opMs, res.sim*1000)
		ps.virt += res.virt
		for k, v := range res.rec {
			ps.rec[k] += v
		}
		ps.push = mergeHist(ps.push, res.pushE2E)
	}
	r.tr.startPass(name)
	if r.wl.queries == nil {
		add(key(clusterOp, seed), "", r.runCluster(workers, seed, traced))
	}
	for i := range r.wl.queries {
		q := &r.wl.queries[i]
		for _, plat := range measured {
			add(key(q.name+"/"+plat, seed), key(q.name, seed), r.runQuery(q, plat, seed, traced))
		}
	}
	ps.phases = r.tr.endPass()
	return ps
}

// reference runs, once per input set, what the measured ops on it are
// checked against: every query on the local platform, or the cluster op at
// one sim worker.
func (r *runner) reference(seed int64) {
	if r.refDone[seed] {
		return
	}
	r.refDone[seed] = true
	if r.wl.queries == nil {
		r.pass("reference", false, 1, seed)
		return
	}
	r.tr.startPass("reference")
	for i := range r.wl.queries {
		q := &r.wl.queries[i]
		res := r.runQuery(q, platLocal, seed, false)
		r.check(key(q.name+"/"+platLocal, seed), "", res)
		r.ref[key(q.name, seed)] = res.answer
	}
	r.tr.endPass()
}

// outcome is what a run measured.
type outcome struct {
	metrics map[string]float64
	notes   []string
}

// measure runs a warm-up pass, then passes until the budget is spent, one
// input set per pass in an untraced run, and one per round of an untraced
// pass, a traced pass and, on cluster, a 1-worker op in a traced run (so
// the traced pass must repeat the untraced one exactly). An input set's
// reference runs, untimed, before its first pass. An untraced run returns
// the end-to-end metrics, a traced one the per-layer metrics.
func (r *runner) measure() outcome {
	r.reference(r.inputs[0])
	r.pass("warm-up", false, r.workers, r.inputs[0])
	deadline := hostNow().Add(r.cfg.budget)
	more := func(n int) bool { return n == 0 || hostNow().Before(deadline) }
	if !r.cfg.trace {
		var passes []passStats
		for more(len(passes)) {
			seed := r.inputs[len(passes)%len(r.inputs)]
			r.reference(seed)
			debug.FreeOSMemory() // each pass starts from a collected, returned heap
			resetPeakRSS()
			ps := r.pass("pass", false, r.workers, seed)
			ps.peakRSS = peakRSSMB()
			passes = append(passes, ps)
		}
		return endToEnd(passes)
	}
	var plain, traced []passStats
	var seqMs []float64
	for more(len(traced)) {
		seed := r.inputs[len(traced)%len(r.inputs)]
		r.reference(seed)
		debug.FreeOSMemory()
		plain = append(plain, r.pass("pass", false, r.workers, seed))
		debug.FreeOSMemory()
		traced = append(traced, r.tracedPass(seed))
		if r.wl.queries == nil {
			debug.FreeOSMemory()
			seqMs = append(seqMs, r.pass("sequential", false, 1, seed).meanMs())
		}
	}
	prof, err := foldProfiles(r.cpu)
	if err != nil {
		fmt.Fprintf(r.log, "warning: %v; host.* metrics read 0\n", err)
	}
	return perLayer(plain, traced, seqMs, prof)
}

// tracedPass runs one pass with pprof labels, metrics registries and a CPU
// profile, which it writes to the run's artifact directory.
func (r *runner) tracedPass(seed int64) passStats {
	var buf bytes.Buffer
	profiling := pprof.StartCPUProfile(&buf) == nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps := r.pass("traced", true, r.workers, seed)
	runtime.ReadMemStats(&after)
	if profiling {
		pprof.StopCPUProfile()
		path := filepath.Join(r.dir(), fmt.Sprintf("cpu-%03d.pb.gz", len(r.cpu)))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(r.log, "warning: %v\n", err)
		} else {
			r.cpu = append(r.cpu, path)
		}
	} else {
		fmt.Fprintln(r.log, "warning: CPU profiling unavailable; host.* metrics read 0")
	}
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.allocBytes = after.TotalAlloc - before.TotalAlloc
	ps.gcCycles = after.NumGC - before.NumGC
	ps.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return ps
}

// result is the last line a run prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBenchmark executes one run, printing its inputs, checks and metrics to
// w, and returns the result line.
func runBenchmark(cfg config, w io.Writer) (result, *runner, error) {
	r, err := newRunner(cfg, w)
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace && cfg.out == "" {
		return result{}, nil, errors.New("a traced run needs an artifact directory for its CPU profiles")
	}
	if cfg.out != "" {
		if err := os.MkdirAll(r.dir(), 0o755); err != nil {
			return result{}, nil, err
		}
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n",
		cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	fmt.Fprintf(w, "host: %s\n", fingerprint())
	fmt.Fprintf(w, "inputs: %s\n", r.describeInputs())
	out := r.measure()
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs()
	}
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(defs)),
	}
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-24s %16.6f %s\n", d.name, v, d.unit)
	}
	if cfg.out != "" {
		if err := r.writeArtifacts(res); err != nil {
			fmt.Fprintf(w, "warning: %v\n", err)
		}
	}
	return res, r, nil
}

// describeInputs describes the generated inputs and sizes of the run.
func (r *runner) describeInputs() string {
	sz := r.cfg.sizes
	seeds := fmt.Sprintf("input seeds %v", r.inputs)
	switch r.wl.name {
	case "olap":
		return fmt.Sprintf("TPC-H scale=%g, compute cache %g%% of the working set; Q9 Q3 Q6 on %v; single-controller pool, no faults; %s",
			sz.Scale, cacheFrac*100, measured, seeds)
	case "chaos":
		var chaos []int64
		for _, s := range r.inputs {
			chaos = append(chaos, chaosSeedFor(s))
		}
		return fmt.Sprintf("WordCount words=%d vocab=4000, SSSP nv=%d degree=6 cache=540KiB, on %v; pool %d shards R=%d W=%d under %s; %s, chaos seeds %v",
			sz.Words, sz.GraphNV, measured, chaosPool.shards, chaosPool.replicas, chaosPool.quorum, chaosProfile, seeds, chaos)
	}
	return fmt.Sprintf("RunCluster machines=%d rounds=%d rows/machine=%d scale=%g sim-workers=%d (reference at 1); %s",
		sz.Machines, sz.Rounds, clusterRows(sz.Scale), sz.Scale, r.workers, seeds)
}

// dir is the run's artifact directory under cfg.out.
func (r *runner) dir() string {
	return filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d-trace%d", r.wl.name, r.cfg.seed, btoi(r.cfg.trace)))
}

// writeArtifacts writes the report and, for a traced run, the spans into
// the run's artifact directory, next to the traced run's CPU profiles.
func (r *runner) writeArtifacts(res result) error {
	dir := r.dir()
	report := map[string]any{
		"workload": r.wl.name, "seed": r.cfg.seed, "host": fingerprint(), "inputs": r.describeInputs(),
		"result": res, "records": r.first,
	}
	if err := writeJSON(filepath.Join(dir, "report.json"), report); err != nil {
		return err
	}
	if !r.cfg.trace {
		return nil
	}
	return writeJSON(filepath.Join(dir, "spans.json"), r.tr.spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds, per workload, digests of the records the default seed
// produces.
type goldenFile map[string]*goldenSet

// goldenSet is one workload's golden records: per op, a digest of the
// record's values over one shared key list.
type goldenSet struct {
	Keys []string          `json:"keys"`
	Ops  map[string]string `json:"ops"`
}

func loadGolden(b []byte) (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden records: %w", err)
	}
	return g, nil
}

// newGoldenSet digests a run's records over the union of their keys.
func newGoldenSet(recs map[string]record) *goldenSet {
	union := record{}
	for _, rec := range recs {
		for k := range rec {
			union[k] = 0
		}
	}
	g := &goldenSet{Keys: sortedKeys(union), Ops: map[string]string{}}
	for op, rec := range recs {
		g.Ops[op] = g.digest(rec)
	}
	return g
}

// digest hashes rec's values at g's keys; a key rec lacks reads 0, and
// keys outside the list are ignored, so a counter the program adds later
// does not fail old records.
func (g *goldenSet) digest(rec record) string {
	vals := make([]uint64, len(g.Keys))
	for i, k := range g.Keys {
		vals[i] = uint64(rec[k])
	}
	return fmt.Sprintf("%016x", digestWords(vals))
}

// diff reports whether op's record departs from its golden digest.
func (g *goldenSet) diff(op string, rec record) (string, bool) {
	want, ok := g.Ops[op]
	if !ok {
		return "no golden record", true
	}
	if got := g.digest(rec); got != want {
		return fmt.Sprintf("model output differs from the golden record: digest %s, want %s", got, want), true
	}
	return "", false
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	wl := flags.String("workload", "", "workload to run: olap, chaos or cluster")
	seed := flags.Int64("seed", defaultSeed, "workload seed; the chaos seed is derived from it")
	seconds := flags.Int("seconds", 30, "how long the measured passes run")
	traceFlag := flags.Int("trace", 0, "1 runs the traced run that gives the per-layer metrics")
	out := flags.String("out", ".bench_build/artifacts", "directory for the report, spans and CPU profiles")
	writeGolden := flags.String("write-golden", "", "record this run's model output as the workload's golden records in this file")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flags.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1, --trace 0 or 1 and no arguments")
		return 2
	}
	cfg := config{
		workload: *wl, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, sizes: defaultSizes(), out: *out,
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *seed == defaultSeed && *writeGolden == "" {
		cfg.golden = golden[*wl]
		if cfg.golden == nil {
			cfg.golden = &goldenSet{} // every op fails: no golden record
		}
	}
	res, r, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *writeGolden != "" {
		for _, s := range r.inputs { // the golden covers every input set
			r.reference(s)
			r.pass("golden", false, r.workers, s)
		}
		if *seed != defaultSeed || r.failed > 0 {
			fmt.Fprintln(stderr, "perfbench: golden records come from a correct run at the default seed")
			return 1
		}
		b, err := os.ReadFile(*writeGolden)
		if errors.Is(err, fs.ErrNotExist) {
			b, err = []byte("{}"), nil
		}
		if err == nil {
			golden, err = loadGolden(b)
		}
		if err == nil {
			golden[*wl] = newGoldenSet(r.first)
			err = writeJSON(*writeGolden, golden)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
