package main

import (
	"context"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostNow reads the host's monotonic clock.
func hostNow() time.Time {
	return time.Now() //lint:allow walltime host benchmark measures the simulator, not the simulation
}

// hostCPU is the CPU time all threads of the process have used, user and
// system. Unlike the wall clock it leaves out time a virtual machine's
// hypervisor gives to other guests (steal), which on a shared host moves
// wall-clock timings by tens of percent from one minute to the next.
func hostCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads, per CPU, the time the hypervisor gave to other guests
// while the CPU had work to run (the "steal" column of /proc/stat, in
// 10 ms ticks); nil where the host does not report it.
func cpuSteal() []time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []time.Duration
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, time.Duration(ticks)*10*time.Millisecond)
	}
	return out
}

// maxStolen is the most steal any one CPU accrued between two cpuSteal
// readings: a call running on every CPU in lockstep waited at least that
// long.
func maxStolen(before, after []time.Duration) time.Duration {
	var m time.Duration
	if len(before) != len(after) {
		return 0
	}
	for i := range after {
		m = max(m, after[i]-before[i])
	}
	return m
}

// span is one timed call the benchmark made into a layer. Spans of one op
// share its id; a pass, an op and a phase nest through parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`     // 0: a pass span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the run began
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"` // process CPU time used between the two
}

// tracer keeps every span of a run in memory; the traced run writes them
// out at exit. In traced ops each phase also runs under pprof labels
// (workload, op, phase), which goroutines the phase starts inherit, so CPU
// samples of simulated threads carry them too.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	pass     int // id of the open pass span
	ops      int
	// phases sums the open pass's phase CPU time by phase name, seconds.
	phases map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: hostNow(), phases: map[string]float64{}}
}

func (tr *tracer) begin(parent, op int, name string) int {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(hostNow().Sub(tr.t0)), CPU: int64(hostCPU()),
	})
	return len(tr.spans)
}

// cost is what a span took, in seconds.
type cost struct{ cpu, wall float64 }

// end closes span id and returns its cost.
func (tr *tracer) end(id int) cost {
	s := &tr.spans[id-1]
	s.CPU = int64(hostCPU()) - s.CPU
	s.End = int64(hostNow().Sub(tr.t0))
	return cost{cpu: time.Duration(s.CPU).Seconds(), wall: time.Duration(s.End - s.Start).Seconds()}
}

// startPass opens a pass span: "pass" for a measured pass, or another name
// for the runs around them (reference, warm-up).
func (tr *tracer) startPass(name string) {
	tr.pass = tr.begin(0, 0, name)
	tr.phases = map[string]float64{}
}

// endPass closes the pass span and returns its phase sums.
func (tr *tracer) endPass() map[string]float64 {
	tr.end(tr.pass)
	return tr.phases
}

// opSpan is an open op span.
type opSpan struct {
	tr     *tracer
	id, op int
	name   string
	traced bool
}

func (tr *tracer) startOp(name string, traced bool) *opSpan {
	tr.ops++
	return &opSpan{tr: tr, id: tr.begin(tr.pass, tr.ops, name), op: tr.ops, name: name, traced: traced}
}

// phase runs fn as a child span of the op and returns its cost.
func (s *opSpan) phase(name string, fn func()) cost {
	id := s.tr.begin(s.id, s.op, name)
	if s.traced {
		pprof.Do(context.Background(),
			pprof.Labels("workload", s.tr.workload, "op", s.name, "phase", name),
			func(context.Context) { fn() })
	} else {
		fn()
	}
	c := s.tr.end(id)
	s.tr.phases[name] += c.cpu
	return c
}

func (s *opSpan) end() { s.tr.end(s.id) }
