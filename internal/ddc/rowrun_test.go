package ddc

import (
	"fmt"
	"math/rand"
	"testing"

	"teleport/internal/mem"
	"teleport/internal/sim"
)

// rowRunWorld is one machine with a fixed set of adjacent vectors: four
// inputs (two spanning exactly two pages each, so one vector's first line
// directly follows the previous vector's last) and two outputs.
type rowRunWorld struct {
	p    *Process
	th   *sim.Thread
	env  *Env
	vecs []Lane
}

const rowRunRows = 1024

func newRowRunWorld() *rowRunWorld {
	m := MustMachine(BaseDDC(6 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	w := &rowRunWorld{p: p, th: th, env: p.NewEnv(th)}
	for _, width := range []int{8, 4, 8, 4, 8, 4} {
		base := p.Space.AllocPages(int64(rowRunRows*width), "vec")
		for i := 0; i < rowRunRows; i++ {
			p.Space.WriteU64(base+mem.Addr(i*width)&^7, uint64(i*2654435761))
		}
		w.vecs = append(w.vecs, Lane{Base: base, Width: width})
	}
	return w
}

// access is one scalar access of a random prefix.
type access struct {
	vec, row int
	write    bool
}

func (w *rowRunWorld) do(a access) {
	l := w.vecs[a.vec]
	addr := l.addr(a.row)
	switch {
	case a.write && l.Width == 4:
		w.env.WriteU32(addr, uint32(a.row))
	case a.write:
		w.env.WriteU64(addr, uint64(a.row))
	case l.Width == 4:
		w.env.ReadU32(addr)
	default:
		w.env.ReadU64(addr)
	}
}

// envState renders every Env field the models read or write.
func envState(e *Env) string {
	hot := "cold"
	if e.hotValid {
		hot = fmt.Sprint(e.hotWrite, e.hotLine)
	}
	return fmt.Sprint(e.fpValid, e.fpWrite, e.fpPage, e.fpEpoch, e.fpFrame[:8], hot,
		e.streams, e.nStream, e.sClock, e.l2, e.reads, e.writes)
}

// TestRowRunMatchesScalarLoop drives RowRun from random Env states and
// lane placements, and requires it to leave the same Env, paging
// statistics, LRU order, virtual time and bytes as the scalar loop it
// stands for. A lane starts near a shared row, at the start of its vector
// or just before its end (so one lane's line range can end where the next
// vector's begins); the prefix either is random accesses near the lanes or
// replays the loop's own rows before the run, then adds a few accesses on
// the lanes' edge rows. That leaves the page TLB, the hot line and the
// prefetch streams on a lane's page, a line ahead of a lane, or on the line
// another lane's range starts after.
func TestRowRunMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 1500; iter++ {
		vecs := []int{rng.Intn(4)}
		if rng.Intn(3) > 0 {
			vecs = append(vecs, rng.Intn(4))
		}
		vecs = append(vecs, 4+rng.Intn(2)) // the output
		near := 8 + rng.Intn(rowRunRows-16)
		starts := make([]int, len(vecs))
		maxStart := 0
		for k := range starts {
			switch rng.Intn(4) {
			case 0:
				starts[k] = rng.Intn(4)
			case 1:
				starts[k] = rowRunRows - 1 - rng.Intn(8)
			default:
				starts[k] = near + rng.Intn(3)
			}
			maxStart = max(maxStart, starts[k])
		}
		n := 1 + rng.Intn(rowRunRows-maxStart)
		var prefix []access
		if rng.Intn(2) == 0 {
			for k := rng.Intn(24); k > 0; k-- {
				prefix = append(prefix, access{vec: rng.Intn(6), row: (near + rng.Intn(24) - 4) % rowRunRows, write: rng.Intn(3) == 0})
			}
		} else {
			for r := rng.Intn(3) + 1; r > 0; r-- {
				for k, v := range vecs {
					if row := starts[k] - r; row >= 0 {
						prefix = append(prefix, access{vec: v, row: row, write: k == len(vecs)-1})
					}
				}
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			j := rng.Intn(len(vecs))
			if row := starts[j] - 1 + rng.Intn(3); row >= 0 && row < rowRunRows {
				prefix = append(prefix, access{vec: vecs[j], row: row, write: rng.Intn(2) == 0})
			}
		}
		checkRowRun(t, fmt.Sprintf("iter %d", iter), prefix, vecs, starts, n)
	}
}

// TestRowRunAdjacentLaneRanges pins a placement the random walk above
// draws rarely: lane A runs to the end of its vector while lane B starts
// in the first line of the next vector, so A's stream slot reaches the line
// just before B's, and the scalar scan, meeting A's lower slot first,
// charges B's access to it.
func TestRowRunAdjacentLaneRanges(t *testing.T) {
	var prefix []access
	for r := 3; r > 0; r-- {
		prefix = append(prefix, access{vec: 2, row: rowRunRows - 8 - r},
			access{vec: 3, row: 3 - r}, access{vec: 5, row: rowRunRows - 4 - r, write: true})
	}
	checkRowRun(t, "adjacent", prefix, []int{2, 3, 5}, []int{rowRunRows - 8, 3, rowRunRows - 4}, 1)
}

// checkRowRun runs RowRun and the scalar loop it stands for on two fresh
// worlds after the same prefix, over lanes on vecs (the last one the
// output) from rows starts, and compares what they leave.
func checkRowRun(t *testing.T, name string, prefix []access, vecs, starts []int, n int) {
	t.Helper()
	f := func(vals []uint64) uint64 {
		s := uint64(7)
		for _, v := range vals {
			s = s*31 + v
		}
		return s
	}
	desc := fmt.Sprintf("%s: prefix %v, vecs %v from rows %v, %d rows", name, prefix, vecs, starts, n)

	run := func(row bool) (*rowRunWorld, string) {
		w := newRowRunWorld()
		for _, a := range prefix {
			w.do(a)
		}
		lanes := make([]Lane, len(vecs))
		for k, v := range vecs {
			lanes[k] = Lane{Base: w.vecs[v].addr(starts[k]), Width: w.vecs[v].Width}
		}
		in, o := lanes[:len(lanes)-1], lanes[len(lanes)-1]
		if row {
			w.env.RowRun(n, 2, o, in, f)
		} else {
			vals := make([]uint64, len(in))
			for i := 0; i < n; i++ {
				w.env.Compute(2)
				for k, l := range in {
					if l.Width == 4 {
						vals[k] = uint64(w.env.ReadU32(l.addr(i)))
					} else {
						vals[k] = w.env.ReadU64(l.addr(i))
					}
				}
				if o.Width == 4 {
					w.env.WriteU32(o.addr(i), uint32(f(vals)))
				} else {
					w.env.WriteU64(o.addr(i), f(vals))
				}
			}
		}
		var order []mem.PageID
		w.p.Cache.Range(func(p mem.PageID, _, _ bool) bool {
			order = append(order, p)
			return true
		})
		out := w.vecs[vecs[len(vecs)-1]]
		outBytes := make([]byte, rowRunRows*out.Width)
		w.p.Space.ReadAt(out.Base, outBytes)
		return w, fmt.Sprint(w.th.Now(), w.p.Stats(), order, outBytes)
	}
	gw, got := run(true)
	ww, want := run(false)
	if got != want {
		t.Fatalf("%s: outcome differs from the scalar loop", desc)
	}
	if g, w := envState(gw.env), envState(ww.env); g != w {
		t.Fatalf("%s: Env state differs from the scalar loop:\n got %s\nwant %s", desc, g, w)
	}
}
