package ddc

import (
	"fmt"
	"slices"
	"testing"

	"teleport/internal/mem"
)

// refLRU is the naive eager LRU the deferred-order PageCache must match:
// a slice kept in MRU-first order, reordered on every hit.
type refLRU struct {
	capacity int
	list     []refEntry
}

type refEntry struct {
	page            mem.PageID
	writable, dirty bool
}

func (r *refLRU) find(p mem.PageID) int {
	return slices.IndexFunc(r.list, func(e refEntry) bool { return e.page == p })
}

func (r *refLRU) toFront(i int) {
	e := r.list[i]
	copy(r.list[1:i+1], r.list[:i])
	r.list[0] = e
}

func (r *refLRU) evict() []Evicted {
	var out []Evicted
	for r.capacity > 0 && len(r.list) > r.capacity {
		v := r.list[len(r.list)-1]
		r.list = r.list[:len(r.list)-1]
		out = append(out, Evicted{Page: v.page, Dirty: v.dirty})
	}
	return out
}

func (r *refLRU) lookup(p mem.PageID) (bool, bool, bool) {
	i := r.find(p)
	if i < 0 {
		return false, false, false
	}
	r.toFront(i)
	return r.list[0].writable, r.list[0].dirty, true
}

func (r *refLRU) insert(p mem.PageID, w, d bool) []Evicted {
	if i := r.find(p); i >= 0 {
		r.list[i].writable, r.list[i].dirty = w, d
		r.toFront(i)
		return nil
	}
	r.list = append([]refEntry{{p, w, d}}, r.list...)
	return r.evict()
}

func (r *refLRU) remove(p mem.PageID) (bool, bool) {
	i := r.find(p)
	if i < 0 {
		return false, false
	}
	d := r.list[i].dirty
	r.list = slices.Delete(r.list, i, i+1)
	return d, true
}

func (r *refLRU) set(p mem.PageID, f func(*refEntry)) bool {
	i := r.find(p)
	if i < 0 {
		return false
	}
	f(&r.list[i])
	return true
}

// cacheOrder lists the cache's pages MRU to LRU with their bits.
func cacheOrder(c *PageCache) []refEntry {
	var out []refEntry
	c.Range(func(p mem.PageID, w, d bool) bool {
		out = append(out, refEntry{p, w, d})
		return true
	})
	return out
}

// FuzzPageCacheLRU runs random operation sequences through PageCache and
// the eager reference, comparing every result, the Range order and the
// evicted pages after each operation. Ranging settles the deferred order,
// so a second cache runs the same sequence and is ranged only by the
// sequence's own Range operations and at the end: runs of Lookups pile up
// unsettled there, as they do in a simulation. Two bytes make one
// operation: the first picks the operation and its flag bits, the second
// the page.
func FuzzPageCacheLRU(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 3, 0, 1, 1, 4, 0, 2})
	f.Add([]byte{0, 1, 5, 1, 9, 2, 0, 1, 0, 2, 2, 1, 3, 1, 7, 0})
	f.Add([]byte{2, 1, 3, 1, 5, 1, 0, 3, 0, 3, 0, 1, 11, 5, 1, 1, 0, 1, 6, 4})
	f.Add([]byte{0, 3, 1, 3, 2, 3, 3, 3, 4, 0, 2, 0, 1, 0, 3, 0, 2, 0, 1, 19, 40, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capPages := int(data[0] % 6) // 0 = unlimited
		ref := &refLRU{capacity: capPages}
		eager, lazy := NewPageCache(capPages), NewPageCache(capPages)
		data = data[1:]
		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k], data[k+1]
			want := ref.apply(op, arg)
			for _, c := range []*PageCache{eager, lazy} {
				if got := applyOp(c, op, arg); got != want {
					t.Fatalf("op %d (%d, arg %d): cache %s, reference %s", k/2, op%10, arg, got, want)
				}
				if c.Len() != len(ref.list) {
					t.Fatalf("op %d: Len %d, reference %d", k/2, c.Len(), len(ref.list))
				}
			}
			if g := cacheOrder(eager); !slices.Equal(g, ref.list) {
				t.Fatalf("op %d: order %v, reference %v", k/2, g, ref.list)
			}
		}
		if g := cacheOrder(lazy); !slices.Equal(g, ref.list) {
			t.Fatalf("final order %v, reference %v", g, ref.list)
		}
	})
}

// opPage and opFlags decode one fuzz operation's operands.
func opPage(arg byte) mem.PageID       { return mem.PageID(arg % 12) }
func opFlags(op byte) (w, d bool)      { return op&0x10 != 0, op&0x20 != 0 }
func opClears(arg byte) bool           { return arg < 32 }
func opCapacity(arg byte) int          { return int(arg % 6) }
func opSecondPage(arg byte) mem.PageID { return mem.PageID(arg >> 4 % 12) }

// applyOp runs one decoded operation on c and renders its results.
func applyOp(c *PageCache, op, arg byte) string {
	p := opPage(arg)
	w, d := opFlags(op)
	switch op % 10 {
	case 0, 1, 2:
		return fmt.Sprint(c.Lookup(p))
	case 3, 4:
		return fmt.Sprint(c.Insert(p, w, d))
	case 5:
		return fmt.Sprint(c.Remove(p))
	case 6:
		return fmt.Sprint(c.SetCapacity(opCapacity(arg)))
	case 7:
		return fmt.Sprint(c.MarkDirty(p))
	case 8:
		c.ClearDirty(opSecondPage(arg))
		return fmt.Sprint(c.SetWritable(p, w), c.Contains(p))
	default:
		if opClears(arg) {
			c.Clear()
			return ""
		}
		return fmt.Sprint(cacheOrder(c))
	}
}

// apply is applyOp on the reference.
func (r *refLRU) apply(op, arg byte) string {
	p := opPage(arg)
	w, d := opFlags(op)
	switch op % 10 {
	case 0, 1, 2:
		return fmt.Sprint(r.lookup(p))
	case 3, 4:
		return fmt.Sprint(r.insert(p, w, d))
	case 5:
		return fmt.Sprint(r.remove(p))
	case 6:
		r.capacity = opCapacity(arg)
		return fmt.Sprint(r.evict())
	case 7:
		return fmt.Sprint(r.set(p, func(e *refEntry) { e.dirty = true }))
	case 8:
		r.set(opSecondPage(arg), func(e *refEntry) { e.dirty = false })
		return fmt.Sprint(r.set(p, func(e *refEntry) { e.writable = w }), r.find(p) >= 0)
	default:
		if opClears(arg) {
			r.list = nil
			return ""
		}
		return fmt.Sprint(r.list)
	}
}
