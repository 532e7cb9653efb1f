package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinySizes keep a pass well under a second.
func tinySizes() sizes {
	return sizes{Scale: 0.05, Words: 5000, GraphNV: 1000, Machines: 2, Rounds: 1}
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 3, budget: 1, trace: trace, sizes: tinySizes()}
}

// benchmarkFile is the subset of BENCHMARK.json the benchmark's output must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// Every workload, untraced and traced, prints every metric BENCHMARK.json
// names, with its unit, and passes every check.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"olap", "chaos", "cluster"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, wl := range names {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := tinyConfig(wl, trace)
			cfg.out = t.TempDir()
			res, _, err := runBenchmark(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", wl, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(out.String(), " "+d.Name+" ") {
					t.Errorf("%s trace=%t: %s not printed", wl, trace, d.Name)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, m.Value)
				}
			}
			if trace {
				var sum float64
				for _, l := range hostLayers {
					sum += res.Metrics["host."+l+".self_s"].Value
				}
				if total := res.Metrics["host.total_s"].Value; math.Abs(sum-total) > 1e-9*math.Max(1, total) {
					t.Errorf("%s: host.*.self_s sum to %v, profile total %v", wl, sum, total)
				}
			}
		}
	}
}

// A golden record that disagrees with the program fails the op, by name.
func TestCorruptGoldenFailsOp(t *testing.T) {
	cfg := tinyConfig("olap", false)
	_, r, err := runBenchmark(cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	golden := newGoldenSet(r.first)
	op := key("Q3/teleport", r.inputs[0])
	golden.Ops[op] = "0123456789abcdef"
	cfg.golden = golden
	var out bytes.Buffer
	res, _, err := runBenchmark(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupt golden: correct=%t failed=%d", res.Correct, res.Failed)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "FAIL") && !strings.HasPrefix(line, "FAIL olap "+op+": model output differs from the golden record") {
			t.Errorf("unexpected failure line %q", line)
		}
	}
	if !strings.Contains(out.String(), "FAIL olap "+op) {
		t.Errorf("failed op not printed by name:\n%s", out.String())
	}
}

// An answer that disagrees with the local platform's fails the op.
func TestCorruptAnswerFailsOp(t *testing.T) {
	for _, wl := range []string{"olap", "chaos"} {
		var out bytes.Buffer
		r, err := newRunner(tinyConfig(wl, false), &out)
		if err != nil {
			t.Fatal(err)
		}
		q, seed := r.wl.queries[0].name, r.inputs[2]
		r.reference(seed)
		r.ref[key(q, seed)] ^= 1
		r.pass("pass", false, r.workers, seed)
		if r.failed != len(measured) {
			t.Errorf("%s: %d ops failed, want the %d ops of %s\n%s", wl, r.failed, len(measured), q, out.String())
		}
		if !strings.Contains(out.String(), "FAIL "+wl+" "+key(q+"/"+platBase, seed)+": answer") {
			t.Errorf("%s: failed op not printed by name:\n%s", wl, out.String())
		}
	}
}

// A RunCluster error, its own aggregate check among them, fails the op.
func TestClusterErrorFailsOp(t *testing.T) {
	cfg := tinyConfig("cluster", false)
	cfg.sizes.Machines = 0 // RunCluster refuses an empty cluster
	var out bytes.Buffer
	r, err := newRunner(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	seed := r.inputs[0]
	r.pass("pass", false, r.workers, seed)
	if r.failed != 1 || !strings.Contains(out.String(), "FAIL cluster "+key(clusterOp, seed)+": bench: cluster needs") {
		t.Errorf("%d ops failed, want 1 printed by name:\n%s", r.failed, out.String())
	}
}

// The golden records match the program at the default seed and sizes, on
// the first input sets (the benchmark checks them all on every run at the
// default seed).
func TestGoldenMatchesProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"olap", "chaos", "cluster"} {
		var out bytes.Buffer
		r, err := newRunner(config{workload: wl, seed: defaultSeed, sizes: defaultSizes(), golden: golden[wl]}, &out)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range r.inputs[:2] {
			r.reference(seed)
			r.pass("pass", false, r.workers, seed)
		}
		if r.failed != 0 || golden[wl] == nil || len(golden[wl].Ops) < len(r.first) {
			t.Errorf("%s: %d of %d ops differ from the golden records\n%s", wl, r.failed, r.attempted, out.String())
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "olap", "--seconds", "0"},
		{"--workload", "olap", "--trace", "2"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("cli %v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 31)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	if v, p := tail(xs); v != 20 || math.Abs(p-200.0/3) > 1e-9 {
		t.Errorf("tail of 0..30 = %v at p%v, want 20 at p66.7", v, p)
	}
	if v, p := tail(xs[:5]); v != 30 || p != 100 {
		t.Errorf("tail of 5 samples = %v at p%v, want the maximum", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A cluster call is charged its wall time less the most steal any one CPU
// accrued, and nothing when the readings do not match.
func TestMaxStolen(t *testing.T) {
	ms := time.Millisecond
	if got := maxStolen([]time.Duration{10 * ms, 50 * ms}, []time.Duration{40 * ms, 60 * ms}); got != 30*ms {
		t.Errorf("maxStolen = %v, want 30ms", got)
	}
	if got := maxStolen(nil, []time.Duration{40 * ms}); got != 0 {
		t.Errorf("maxStolen of mismatched readings = %v, want 0", got)
	}
}

// A CPU profile folds into layers that sum to its total, and labelled
// samples of the cluster op's simulation phase are told apart.
func TestHostProfileFoldsSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("op", clusterOp, "phase", "engine"), func(context.Context) {
		for start := hostCPU(); hostCPU()-start < 300*time.Millisecond; {
			spinSink += spin(1 << 16)
		}
	})
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := foldProfiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range hostLayers {
		sum += h.layerNs[l]
	}
	if h.totalNs < int64(100*time.Millisecond) || sum != h.totalNs {
		t.Fatalf("profile total %v, layers sum to %v", time.Duration(h.totalNs), time.Duration(sum))
	}
	if h.layerNs["other"] < h.totalNs/2 || h.clusterNs < h.totalNs/2 || h.clusterSetupNs != 0 {
		t.Errorf("spin loop in package main: other=%v labelled=%v setup=%v of %v",
			time.Duration(h.layerNs["other"]), time.Duration(h.clusterNs), time.Duration(h.clusterSetupNs), time.Duration(h.totalNs))
	}
}

var spinSink uint64

//go:noinline
func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"teleport/internal/ddc.(*Env).ReadU64":       "ddc",
		"teleport/internal/mem.(*Space).readWord":    "mem",
		"teleport/internal/bench.RunCluster.func1":   "bench",
		"teleport/internal/metrics.(*Counter).Inc":   "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"runtime/internal/syscall.Syscall6":          "runtime",
		"sort.Slice":                                 "other",
		"main.(*runner).pass":                        "other",
		"teleport/internal/sim.(*Scheduler).Run":     "sim",
		"teleport/internal/core.(*Runtime).Pushdown": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
