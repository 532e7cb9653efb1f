package ddc

import (
	"encoding/binary"
	"fmt"

	"teleport/internal/hw"
	"teleport/internal/mem"
)

// Lane is one vector of a row run: element i occupies Width bytes at
// Base + i·Width. Width is 4 or 8 and Base a multiple of it, so no element
// straddles a DRAM line or a page.
type Lane struct {
	Base  mem.Addr
	Width int
}

func (l Lane) addr(i int) mem.Addr { return l.Base + mem.Addr(i*l.Width) }

// runLane is a lane's state inside one page-run: its page and frame, and
// the prefetch-stream slot its accesses advance.
type runLane struct {
	Lane
	page   mem.PageID
	frame  []byte
	slot   int
	lo, hi uint64 // the lines the slot can hold during the page-run
}

// RowRun runs rows [0, n) of a dense, element-aligned loop from k ≥ 1 input
// lanes to one output lane. For each row i it charges Compute(ops), reads
// element i of every input lane in order (4-byte elements zero-extended),
// and writes f's result as element i of out (its low 4 bytes for a 4-byte
// lane). It is event-for-event the loop
//
//	for i := 0; i < n; i++ {
//		e.Compute(ops)
//		vals[k] = e.ReadU64 / e.ReadU32 of in[k] at row i, for each k
//		e.WriteU64 / e.WriteU32 of f(vals) to out at row i
//	}
//
// and runs that loop itself wherever it cannot prove the cheaper page-run
// equal to it. A page-run covers the rows in which every lane stays on one
// page. Inside it every access still calls Pager.EnsurePage, exactly as the
// scalar path would (lanes on distinct pages always miss the page TLB and
// the hot line), and charges the same DRAM line events; what the run saves
// is resolving, once per run instead of per access, each lane's frame, the
// prefetch stream it advances, and the page-TLB/hot-line memo state.
//
// A page-run starts only when all of these hold, else one row goes through
// the scalar accessors and the run tries again: the thread is not attached
// to a scheduler (a yield could let another thread act between the
// accesses); the lanes sit on pairwise distinct pages, none of them the
// page-TLB page; and each lane's next line is on, or directly after, a
// stream slot that no other slot can match while the run lasts (no other
// stream lies in the lane's line range). It ends at the first page
// boundary of any lane and after any row in which the process epoch moved.
func (e *Env) RowRun(n int, ops float64, out Lane, in []Lane, f func(vals []uint64) uint64) {
	if len(in) == 0 {
		// With one lane every access would follow one on its own page.
		panic("ddc: RowRun needs at least one input lane")
	}
	lanes := make([]runLane, len(in)+1)
	for k := range lanes {
		l := out
		if k < len(in) {
			l = in[k]
		}
		if (l.Width != 4 && l.Width != 8) || uint64(l.Base)%uint64(l.Width) != 0 {
			panic(fmt.Sprintf("ddc: RowRun lane %d is not element-aligned: %+v", k, l))
		}
		lanes[k].Lane = l
	}
	vals := make([]uint64, len(in))
	opNs := hw.OpNs(e.ClockGHz, ops)
	for i := 0; i < n; {
		if end := e.startPageRun(lanes, i, n); end > i {
			i = e.pageRun(lanes, vals, i, end, opNs, f)
			continue
		}
		e.Compute(ops)
		for k := range vals {
			if a := lanes[k].addr(i); lanes[k].Width == 4 {
				vals[k] = uint64(e.ReadU32(a))
			} else {
				vals[k] = e.ReadU64(a)
			}
		}
		if a, v := out.addr(i), f(vals); out.Width == 4 {
			e.WriteU32(a, uint32(v))
		} else {
			e.WriteU64(a, v)
		}
		i++
	}
}

// startPageRun resolves a page-run from row i and returns its end row, or
// i when one of RowRun's preconditions fails.
func (e *Env) startPageRun(lanes []runLane, i, n int) int {
	if e.T.Attached() {
		return i
	}
	end := n
	for k := range lanes {
		l := &lanes[k]
		a := l.addr(i)
		l.page = mem.PageOf(a)
		if left := int(mem.PageBase(l.page+1)-a) / l.Width; i+left < end {
			end = i + left
		}
		for j := 0; j < k; j++ {
			if lanes[j].page == l.page {
				return i
			}
		}
	}
	if e.fpValid && lanes[0].page == e.fpPage {
		return i // the first access would hit the page TLB
	}
	for k := range lanes {
		l := &lanes[k]
		first := e.lineOf(uint64(l.addr(i)))
		l.lo, l.hi = first-1, e.lineOf(uint64(l.addr(end-1))+uint64(l.Width)-1)
		l.slot = -1
		for s, v := range e.streams[:e.nStream] {
			if v < l.lo || v > l.hi {
				continue
			}
			if l.slot >= 0 || v > first {
				return i
			}
			l.slot = s
		}
		if l.slot < 0 {
			return i
		}
		for j := 0; j < k; j++ {
			if lanes[j].lo <= l.hi && l.lo <= lanes[j].hi {
				return i // a slot could stray into another lane's range
			}
		}
	}
	for k := range lanes {
		lanes[k].frame = e.P.Space.Frame(lanes[k].page)
	}
	return end
}

// pageRun runs rows [i, end) of a resolved page-run and returns the row it
// stopped before: end, or earlier after a row that moved the epoch. The
// page-TLB/hot-line memo is invalid while the run owns it, so a panic out
// of EnsurePage leaves it conservatively cleared; on return it holds what
// the run's last access left, as the scalar path's would.
func (e *Env) pageRun(lanes []runLane, vals []uint64, i, end int, opNs float64, f func([]uint64) uint64) int {
	e.fpValid, e.hotValid = false, false
	epoch := e.P.Epoch
	seqNs := e.P.M.Cfg.HW.DRAMSeqLineNs
	out := &lanes[len(vals)]
	for i < end {
		ns := opNs
		if e.Dilation != nil {
			ns *= e.Dilation()
		}
		e.T.AdvanceNs(ns)
		for k := range vals {
			l := &lanes[k]
			a := l.addr(i)
			e.reads++
			e.pager.EnsurePage(e, l.page, false)
			e.streamLine(l.slot, e.lineOf(uint64(a)), seqNs)
			if off := a & (mem.PageSize - 1); l.Width == 4 {
				vals[k] = uint64(binary.LittleEndian.Uint32(l.frame[off:]))
			} else {
				vals[k] = binary.LittleEndian.Uint64(l.frame[off:])
			}
		}
		v := f(vals)
		a := out.addr(i)
		e.writes++
		e.pager.EnsurePage(e, out.page, true)
		e.streamLine(out.slot, e.lineOf(uint64(a)), seqNs)
		if off := a & (mem.PageSize - 1); out.Width == 4 {
			binary.LittleEndian.PutUint32(out.frame[off:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out.frame[off:], v)
		}
		i++
		if e.P.Epoch != epoch {
			break
		}
	}
	e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch, e.fpFrame = true, out.page, true, e.P.Epoch, out.frame
	e.hotValid, e.hotLine, e.hotWrite = true, e.streams[out.slot], true
	return i
}

// streamLine is lineNs for an access whose stream slot s is known to hold
// line l or the line before it: free in the same line, a sequential line
// charge in the next.
func (e *Env) streamLine(s int, l uint64, seqNs float64) {
	if e.streams[s] == l {
		return
	}
	e.streams[s] = l
	if e.l2 != nil {
		e.l2[l&e.l2Mask] = l
	}
	if seqNs > 0 {
		if e.Dilation != nil {
			seqNs *= e.Dilation()
		}
		e.T.AdvanceNs(seqNs)
	}
}
