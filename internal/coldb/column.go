// Package coldb is a columnar in-memory DBMS in the style of MonetDB, the
// system the paper optimises in §5.1. Tables are sets of typed column
// vectors whose bytes live in the process's disaggregated address space, so
// every operator's access pattern — sequential scans for selection and
// projection, random probes for hash joins — flows through the paging and
// coherence models. Each relational operator has a plain implementation and
// a TELEPORT pushdown wrapper (Exec), mirroring the paper's "selective
// wrapping of existing function calls".
package coldb

import (
	"fmt"
	"math"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// Type is a column's storage type.
type Type int

// Column types.
const (
	I64 Type = iota // 8-byte signed integer (keys, counts)
	F64             // 8-byte float (prices, quantities)
	I32             // 4-byte signed integer (dates as day numbers, enums)
)

// Width returns the storage width in bytes.
func (t Type) Width() int {
	if t == I32 {
		return 4
	}
	return 8
}

// String names the type.
func (t Type) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	default:
		return "i32"
	}
}

// Column is a fixed-width typed vector in disaggregated memory.
type Column struct {
	Name string
	Type Type
	Base mem.Addr
	N    int
}

// NewColumn allocates a column of n values in the process's address space.
func NewColumn(p *ddc.Process, name string, t Type, n int) *Column {
	if n <= 0 {
		panic(fmt.Sprintf("coldb: column %q with %d rows", name, n))
	}
	base := p.Space.AllocPages(int64(n)*int64(t.Width()), "col:"+name)
	return &Column{Name: name, Type: t, Base: base, N: n}
}

// Addr returns the address of element i.
func (c *Column) Addr(i int) mem.Addr {
	return c.Base + mem.Addr(i*c.Type.Width())
}

// Bytes returns the column's total size.
func (c *Column) Bytes() int64 { return int64(c.N) * int64(c.Type.Width()) }

// I64At reads element i as int64 through the paging model.
func (c *Column) I64At(env *ddc.Env, i int) int64 {
	if c.Type == I32 {
		return int64(env.ReadI32(c.Addr(i)))
	}
	return env.ReadI64(c.Addr(i))
}

// F64At reads element i as float64.
func (c *Column) F64At(env *ddc.Env, i int) float64 {
	switch c.Type {
	case F64:
		return env.ReadF64(c.Addr(i))
	case I32:
		return float64(env.ReadI32(c.Addr(i)))
	default:
		return float64(env.ReadI64(c.Addr(i)))
	}
}

// SetI64 writes element i from an int64.
func (c *Column) SetI64(env *ddc.Env, i int, v int64) {
	if c.Type == I32 {
		env.WriteI32(c.Addr(i), int32(v))
		return
	}
	env.WriteI64(c.Addr(i), v)
}

// SetF64 writes element i from a float64.
func (c *Column) SetF64(env *ddc.Env, i int, v float64) {
	switch c.Type {
	case F64:
		env.WriteF64(c.Addr(i), v)
	case I32:
		env.WriteI32(c.Addr(i), int32(v))
	default:
		env.WriteI64(c.Addr(i), int64(v))
	}
}

// lane is the column as a ddc row-run lane.
func (c *Column) lane() ddc.Lane { return ddc.Lane{Base: c.Base, Width: c.Type.Width()} }

// i64 decodes an element's raw bits as I64At does.
func (c *Column) i64(raw uint64) int64 {
	if c.Type == I32 {
		return int64(int32(raw))
	}
	return int64(raw)
}

// f64 decodes an element's raw bits as F64At does.
func (c *Column) f64(raw uint64) float64 {
	switch c.Type {
	case F64:
		return math.Float64frombits(raw)
	case I32:
		return float64(int32(raw))
	default:
		return float64(int64(raw))
	}
}

// rawI64 encodes v as SetI64 stores it.
func (c *Column) rawI64(v int64) uint64 {
	if c.Type == I32 {
		return uint64(uint32(int32(v)))
	}
	return uint64(v)
}

// rawF64 encodes v as SetF64 stores it.
func (c *Column) rawF64(v float64) uint64 {
	switch c.Type {
	case F64:
		return math.Float64bits(v)
	case I32:
		return uint64(uint32(int32(v)))
	default:
		return uint64(int64(v))
	}
}

// mapRows is the dense loop over rows [0, out.N) that charges ops per row,
// reads row i of every in column in order and writes f's result as row i
// of out, all as raw element bits (see ddc.Env.RowRun).
func mapRows(env *ddc.Env, ops float64, out *Column, f func(raw []uint64) uint64, in ...*Column) {
	lanes := make([]ddc.Lane, len(in))
	for k, c := range in {
		lanes[k] = c.lane()
	}
	env.RowRun(out.N, ops, out.lane(), lanes, f)
}

// copyRaw is Project's row function: its input and output columns have one
// type, and F64At/SetF64 and I64At/SetI64 both round-trip an element's bits.
func copyRaw(raw []uint64) uint64 { return raw[0] }

// MapI64 is the dense loop
//
//	for i := 0; i < out.N; i++ {
//		env.Compute(ops)
//		out.SetI64(env, i, f([]int64{in[0].I64At(env, i), ...}))
//	}
//
// with the same model events, run as a row run.
func MapI64(env *ddc.Env, ops float64, out *Column, f func(v []int64) int64, in ...*Column) {
	v := make([]int64, len(in))
	mapRows(env, ops, out, func(raw []uint64) uint64 {
		for k, c := range in {
			v[k] = c.i64(raw[k])
		}
		return out.rawI64(f(v))
	}, in...)
}

// MapF64 is MapI64 over float values (F64At in, SetF64 out).
func MapF64(env *ddc.Env, ops float64, out *Column, f func(v []float64) float64, in ...*Column) {
	v := make([]float64, len(in))
	mapRows(env, ops, out, func(raw []uint64) uint64 {
		for k, c := range in {
			v[k] = c.f64(raw[k])
		}
		return out.rawF64(f(v))
	}, in...)
}

// LoadI64 bulk-writes vals into the column directly through the ground-truth
// space. Loading models the initial population of the buffer pool in the
// memory pool (data is *born remote* in a DDC), so it bypasses the compute
// cache and charges nothing.
func (c *Column) LoadI64(p *ddc.Process, vals []int64) {
	if len(vals) != c.N {
		panic("coldb: LoadI64 length mismatch")
	}
	for i, v := range vals {
		if c.Type == I32 {
			p.Space.WriteI32(c.Addr(i), int32(v))
		} else {
			p.Space.WriteI64(c.Addr(i), v)
		}
	}
}

// LoadF64 bulk-writes float values, bypassing the compute cache.
func (c *Column) LoadF64(p *ddc.Process, vals []float64) {
	if len(vals) != c.N {
		panic("coldb: LoadF64 length mismatch")
	}
	for i, v := range vals {
		p.Space.WriteF64(c.Addr(i), v)
	}
}

// Range is a contiguous row interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// AddrRange returns the column's byte range for rows [lo, hi) — used to
// build core.Range eviction/sync hints.
func (c *Column) AddrRange(lo, hi int) (mem.Addr, int64) {
	return c.Addr(lo), int64(hi-lo) * int64(c.Type.Width())
}
