package core

import (
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// tempTable is the temporary user context's page table. Conceptually it is
// a full clone of the caller's page table (Figure 8 line 7); because a
// clone starts identical to the original — present and writable everywhere
// the process has memory — we represent it as "writable by default" plus
// explicit overrides for the pages the protocol has touched. The clone's
// O(table size) construction cost is still charged (see Runtime.setup), so
// the representation changes nothing observable.
type tempTable struct {
	// overrides is page-indexed (nil = still the cloned default state);
	// the address space is a dense bump allocator, so direct indexing keeps
	// the per-access lookup off the hash-map path. n counts materialised
	// entries.
	overrides []*tempPTE
	n         int
}

// tempPTE mirrors the paper's pte fields plus the bookkeeping the
// concurrent-fault tiebreak needs.
type tempPTE struct {
	present  bool
	writable bool
	dirty    bool

	// lastMemTouch is the last virtual time the temporary context accessed
	// the page; a compute-pool write request arriving within the
	// contention window of it counts as a concurrent (R,R)→W fault and is
	// tie-broken in favour of the memory pool (§4.1).
	lastMemTouch sim.Time
}

func newTempTable() *tempTable {
	return &tempTable{}
}

// entry returns the override for p, materialising the default
// (present+writable, i.e. the cloned state) if none exists yet.
func (tt *tempTable) entry(p mem.PageID) *tempPTE {
	if p < mem.PageID(len(tt.overrides)) {
		if e := tt.overrides[p]; e != nil {
			return e
		}
	} else {
		size := int(p) + 1
		if d := 2 * len(tt.overrides); d > size {
			size = d
		}
		grown := make([]*tempPTE, size)
		copy(grown, tt.overrides)
		tt.overrides = grown
	}
	e := &tempPTE{present: true, writable: true}
	tt.overrides[p] = e
	tt.n++
	return e
}

// peek returns the current state without materialising an override.
func (tt *tempTable) peek(p mem.PageID) (present, writable bool) {
	if p < mem.PageID(len(tt.overrides)) {
		if e := tt.overrides[p]; e != nil {
			return e.present, e.writable
		}
	}
	return true, true
}

// invalidate implements Figure 8's Invalidate(pte, write): if the compute
// pool holds the page writable, the temporary context loses it entirely;
// if read-only, the temporary context keeps a read-only mapping.
//
//	1 Function Invalidate(pte, write):
//	2   if write then
//	3     pte.present ← False
//	4   else
//	5     pte.writable ← False
func (tt *tempTable) invalidate(p mem.PageID, computeWritable bool) {
	e := tt.entry(p)
	if computeWritable {
		e.present = false // line 3
	} else {
		e.writable = false // line 5
	}
}

// dirtyPages returns the pages the temporary context dirtied, in ascending
// page order, for the dirty-bit merge at completion (§4.1: "the dirty bits
// of the temporary context's page table should be merged back into the full
// page table"). The page-indexed walk yields the same sorted order the map
// representation had to construct explicitly.
func (tt *tempTable) dirtyPages() []mem.PageID {
	var out []mem.PageID
	for p, e := range tt.overrides {
		if e != nil && e.dirty {
			out = append(out, mem.PageID(p))
		}
	}
	return out
}

// len returns the number of materialised overrides (protocol-touched pages).
func (tt *tempTable) len() int { return tt.n }
