package coldb_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// rowRunCase is one caller of the row run with the per-element loop it
// replaced. Both allocate their output the same way, so the two machines'
// address spaces stay identical.
type rowRunCase struct {
	name string
	in   []coldb.Type
	run  func(env *ddc.Env, in []*coldb.Column) *coldb.Column
	ref  func(env *ddc.Env, in []*coldb.Column) *coldb.Column
}

func dense(env *ddc.Env, name string, t coldb.Type, n int) *coldb.Column {
	c := coldb.NewColumn(env.P, name, t, n)
	c.N = n
	return c
}

// mapRef is the per-element loop under coldb.MapI64 (f64 false) and
// coldb.MapF64 (f64 true) for two inputs.
func mapRef(env *ddc.Env, out *coldb.Column, a, b *coldb.Column, fi func(x, y int64) int64, ff func(x, y float64) float64) {
	for i := 0; i < out.N; i++ {
		env.Compute(2)
		if ff != nil {
			out.SetF64(env, i, ff(a.F64At(env, i), b.F64At(env, i)))
		} else if b != nil {
			out.SetI64(env, i, fi(a.I64At(env, i), b.I64At(env, i)))
		} else {
			out.SetI64(env, i, fi(a.I64At(env, i), 0))
		}
	}
}

func rowRunCases() []rowRunCase {
	project := func(t coldb.Type) rowRunCase {
		return rowRunCase{
			name: "Project/" + t.String(), in: []coldb.Type{t},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column { return coldb.Project(env, in[0], nil) },
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				col := in[0]
				out := dense(env, col.Name+"#proj", col.Type, col.N)
				for i := 0; i < col.N; i++ {
					env.Compute(2)
					if col.Type == coldb.F64 {
						out.SetF64(env, i, col.F64At(env, i))
					} else {
						out.SetI64(env, i, col.I64At(env, i))
					}
				}
				return out
			},
		}
	}
	composite := func(x, y int64) int64 { return x*100003 + y }
	return []rowRunCase{
		project(coldb.F64), project(coldb.I64), project(coldb.I32),
		{
			name: "ExprRevenue", in: []coldb.Type{coldb.F64, coldb.F64},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column { return coldb.ExprRevenue(env, in[0], in[1], nil) },
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "revenue", coldb.F64, in[0].N)
				for i := 0; i < in[0].N; i++ {
					env.Compute(4)
					out.SetF64(env, i, in[0].F64At(env, i)*(1-in[1].F64At(env, i)))
				}
				return out
			},
		},
		{
			name: "ExprMulAddColumns", in: []coldb.Type{coldb.I64, coldb.F64},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				return coldb.ExprMulAddColumns(env, in[0], in[1], 0.5, nil)
			},
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "ab", coldb.F64, in[0].N)
				for i := 0; i < in[0].N; i++ {
					env.Compute(4)
					out.SetF64(env, i, in[0].F64At(env, i)*in[1].F64At(env, i)*0.5)
				}
				return out
			},
		},
		{
			name: "MapI64/composite-key", in: []coldb.Type{coldb.I64, coldb.I64},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "pskey", coldb.I64, in[0].N)
				coldb.MapI64(env, 2, out, func(v []int64) int64 { return composite(v[0], v[1]) }, in[0], in[1])
				return out
			},
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "pskey", coldb.I64, in[0].N)
				mapRef(env, out, in[0], in[1], composite, nil)
				return out
			},
		},
		{
			name: "MapI64/year", in: []coldb.Type{coldb.I64},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "year", coldb.I32, in[0].N)
				coldb.MapI64(env, 2, out, func(v []int64) int64 { return v[0] / 365 }, in[0])
				return out
			},
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "year", coldb.I32, in[0].N)
				mapRef(env, out, in[0], nil, func(x, _ int64) int64 { return x / 365 }, nil)
				return out
			},
		},
		{
			name: "MapF64/amount", in: []coldb.Type{coldb.F64, coldb.F64},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "amount", coldb.F64, in[0].N)
				coldb.MapF64(env, 2, out, func(v []float64) float64 { return v[0] - v[1] }, in[0], in[1])
				return out
			},
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "amount", coldb.F64, in[0].N)
				mapRef(env, out, in[0], in[1], nil, func(x, y float64) float64 { return x - y })
				return out
			},
		},
		{
			name: "MapI64/nation-year", in: []coldb.Type{coldb.I64, coldb.I32},
			run: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "nation_year", coldb.I64, in[0].N)
				coldb.MapI64(env, 2, out, func(v []int64) int64 { return v[0]*100 + v[1] }, in[0], in[1])
				return out
			},
			ref: func(env *ddc.Env, in []*coldb.Column) *coldb.Column {
				out := dense(env, "nation_year", coldb.I64, in[0].N)
				mapRef(env, out, in[0], in[1], func(x, y int64) int64 { return x*100 + y }, nil)
				return out
			},
		},
	}
}

// rowRunPlatform builds one fresh machine and runs an operator on it.
type rowRunPlatform struct {
	name string
	cfg  func() ddc.Config
	push bool // run through the TELEPORT runtime
	// midCrash arms a mid-execution context crash on every pushdown, so
	// each attempt rolls back inside the run before the local fallback.
	midCrash bool
	// attached runs the operator on a scheduler thread, next to a second
	// thread that scans another column of the same process.
	attached bool
}

func rowRunPlatforms() []rowRunPlatform {
	tiny := func() ddc.Config { return ddc.BaseDDC(6 * mem.PageSize) }
	bounded := func() ddc.Config {
		c := ddc.BaseDDC(8 * mem.PageSize)
		c.MemoryPoolBytes = 12 * mem.PageSize
		return c
	}
	return []rowRunPlatform{
		{name: "local", cfg: ddc.Linux},
		{name: "base-ddc/tiny-cache", cfg: tiny},
		{name: "teleport/bounded-pool", cfg: bounded, push: true},
		{name: "teleport/mid-crash", cfg: tiny, push: true, midCrash: true},
		{name: "base-ddc/attached", cfg: tiny, attached: true},
	}
}

// rowRunOutcome is everything a run leaves that the models define.
type rowRunOutcome struct {
	Now       sim.Time
	Proc      ddc.ProcStats
	Runtime   core.RuntimeStats
	Times     string
	Cache     []string
	Pool      []string
	Out       []byte
	Inputs    [][]byte
	Pushed    bool
	Accesses  [2]int64
	OtherScan int64
}

func cacheList(c *ddc.PageCache) []string {
	if c == nil {
		return nil
	}
	var out []string
	c.Range(func(p mem.PageID, w, d bool) bool {
		out = append(out, fmt.Sprint(p, w, d))
		return true
	})
	return out
}

func columnBytes(p *ddc.Process, c *coldb.Column) []byte {
	b := make([]byte, c.Bytes())
	p.Space.ReadAt(c.Base, b)
	return b
}

// runRowRunOp builds plat's machine, loads n rows of deterministic input
// and runs op, returning the outcome.
func runRowRunOp(t *testing.T, plat rowRunPlatform, tc rowRunCase, n int, op func(*ddc.Env, []*coldb.Column) *coldb.Column) rowRunOutcome {
	t.Helper()
	m := ddc.MustMachine(plat.cfg())
	p := m.NewProcess()
	var in []*coldb.Column
	for k, typ := range tc.in {
		c := coldb.NewColumn(p, fmt.Sprintf("in%d", k), typ, n)
		if typ == coldb.F64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64((i*7+k*13)%997) / 8
			}
			c.LoadF64(p, vals)
		} else {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64((i*31+k*5)%4099) - 100
			}
			c.LoadI64(p, vals)
		}
		in = append(in, c)
	}
	other := coldb.NewColumn(p, "other", coldb.I64, n)
	var rt *core.Runtime
	if plat.push {
		rt = core.NewRuntime(p, 1)
		if plat.midCrash {
			m.AttachFault(fault.NewPlan(fault.Profile{Name: "mid", CtxCrashMidProb: 1}, 11))
		}
	}
	var res rowRunOutcome
	var out *coldb.Column
	body := func(th *sim.Thread) {
		env := p.NewEnv(th)
		// Dirty a prefix of the first input on the compute side, so a
		// pushed run meets compute-held pages and coherence faults.
		for i := 0; i < n/3; i++ {
			in[0].SetI64(env, i, in[0].I64At(env, i)+1)
		}
		if rt == nil {
			out = op(env, in)
			res.Accesses[0], res.Accesses[1] = env.Accesses()
			return
		}
		var err error
		_, res.Pushed, err = rt.PushdownWithPolicy(th, func(env *ddc.Env) { out = op(env, in) },
			core.Options{}, core.DefaultRetryThenLocal())
		if err != nil {
			t.Fatalf("pushdown: %v", err)
		}
	}
	if plat.attached {
		s := sim.NewScheduler()
		s.Spawn("op", 0, body)
		s.Spawn("scan", 0, func(th *sim.Thread) {
			env := p.NewEnv(th)
			for i := 0; i < n; i++ {
				env.Compute(3)
				res.OtherScan += other.I64At(env, i)
			}
		})
		res.Now = s.Run()
	} else {
		th := sim.NewThread("op")
		body(th)
		res.Now = th.Now()
	}
	res.Proc = p.Stats()
	if rt != nil {
		res.Runtime = rt.Stats()
	}
	res.Times = fmt.Sprintf("%+v", *m.Times)
	res.Cache, res.Pool = cacheList(p.Cache), cacheList(p.PoolRes)
	res.Out = columnBytes(p, out)
	for _, c := range in {
		res.Inputs = append(res.Inputs, columnBytes(p, c))
	}
	return res
}

// TestRowRunMatchesPerElementLoop runs every row-run caller against the
// per-element loop it replaced, on identical fresh machines, and requires
// the same virtual time, paging and runtime statistics, time attribution,
// cache and pool LRU order, and bytes.
func TestRowRunMatchesPerElementLoop(t *testing.T) {
	for _, plat := range rowRunPlatforms() {
		for _, tc := range rowRunCases() {
			t.Run(plat.name+"/"+tc.name, func(t *testing.T) {
				const n = 5000 // several pages per lane, I32 lanes change page at other rows
				got := runRowRunOp(t, plat, tc, n, tc.run)
				want := runRowRunOp(t, plat, tc, n, tc.ref)
				if !bytes.Equal(got.Out, want.Out) {
					t.Fatal("output bytes differ from the per-element loop")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("outcome differs from the per-element loop:\n got %+v\nwant %+v", got, want)
				}
				if plat.midCrash && (got.Runtime.Rollbacks == 0 || got.Pushed) {
					t.Fatalf("mid-crash platform did not roll back inside the run: %+v", got.Runtime)
				}
				if plat.push && !plat.midCrash && !got.Pushed {
					t.Fatal("pushdown fell back to local execution")
				}
			})
		}
	}
}
