package core

import (
	"teleport/internal/mem"
)

// pagePool recycles page-sized pre-image buffers across pushdown calls so
// steady-state journal capture allocates nothing: buffers go back on the
// free list when a call rolls back or commits. A nil pool degrades to plain
// allocation (SnapshotPageInto allocates when handed a nil buffer), which
// keeps directly constructed journals in tests working unchanged.
type pagePool struct {
	free [][]byte
}

// get pops a recycled buffer, or returns nil (meaning "allocate").
func (p *pagePool) get() []byte {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	n := len(p.free) - 1
	b := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return b
}

// put returns a buffer to the free list.
func (p *pagePool) put(b []byte) {
	if p == nil || cap(b) < mem.PageSize {
		return
	}
	p.free = append(p.free, b)
}

// undoJournal is the memory-kernel side's crash-consistency log for one
// pushdown call: a copy-on-first-write pre-image of every page the temporary
// context dirties. When the context dies mid-execution (an armed mid-crash
// or a deadline abort), the controller restores the pre-images before the
// compute side is told anything, so a retry — or the compute-side fallback —
// re-executes against exactly the state fn started from. Without it,
// non-idempotent pushed operators (read-modify-write accumulations) would
// double-apply their partial writes on re-execution.
type undoJournal struct {
	// captured is page-indexed: the address space is a dense bump
	// allocator, so the capture check on every write access is a bounds
	// check and a load, not a hash lookup.
	captured []bool
	order    []mem.PageID // capture order, for a deterministic restore walk
	pre      [][]byte     // pre-images, parallel to order
	pool     *pagePool    // optional pre-image buffer recycler (Runtime-owned)
}

// capture records page pg's pre-image if this call has not dirtied it yet.
// It must run before the write it guards mutates the page: EnsurePage is
// called ahead of the backing Space write, so the snapshot still sees the
// pristine bytes.
func (j *undoJournal) capture(s *mem.Space, pg mem.PageID) {
	if pg < mem.PageID(len(j.captured)) && j.captured[pg] {
		return
	}
	if pg >= mem.PageID(len(j.captured)) {
		size := int(pg) + 1
		if d := 2 * len(j.captured); d > size {
			size = d
		}
		grown := make([]bool, size)
		copy(grown, j.captured)
		j.captured = grown
	}
	j.captured[pg] = true
	j.pre = append(j.pre, s.SnapshotPageInto(pg, j.pool.get()))
	j.order = append(j.order, pg)
}

// pages returns how many distinct pages the journal holds.
func (j *undoJournal) pages() int { return len(j.order) }

// rollback restores every captured pre-image in reverse capture order (a
// fixed order, so two same-seed runs roll back identically), invoking
// onPage for each restored page, and empties the journal, returning its
// buffers to the pool.
func (j *undoJournal) rollback(s *mem.Space, onPage func(mem.PageID)) int {
	n := len(j.order)
	for i := n - 1; i >= 0; i-- {
		pg := j.order[i]
		s.RestorePage(pg, j.pre[i])
		if onPage != nil {
			onPage(pg)
		}
	}
	j.discard()
	return n
}

// discard drops the journal without restoring anything (the call committed:
// its writes stand, the pre-images are dead) and recycles the buffers.
func (j *undoJournal) discard() {
	for _, b := range j.pre {
		j.pool.put(b)
	}
	j.captured, j.order, j.pre = nil, nil, nil
}
