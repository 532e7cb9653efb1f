package core

import (
	"runtime"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// BenchmarkPushdownSetup measures the host cost of one pushdown call end to
// end — request, context setup, a one-page function, response — on a warm
// runtime. The pooled undo-journal buffers keep the per-call allocation
// count flat regardless of how many pages the function dirties.
func BenchmarkPushdownSetup(b *testing.B) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.AllocPages(8*mem.PageSize, "v")
	th := sim.NewThread("bench")
	body := func(env *ddc.Env) {
		env.WriteI64(a, env.ReadI64(a)+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalCapture measures pre-image capture across pushdown calls
// that each dirty many pages — the crash-consistency hot path the buffer
// pool exists for.
func BenchmarkJournalCapture(b *testing.B) {
	m := ddc.MustMachine(ddc.BaseDDC(256 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	const pages = 64
	a := p.Space.AllocPages(pages*mem.PageSize, "v")
	th := sim.NewThread("bench")
	body := func(env *ddc.Env) {
		for pg := 0; pg < pages; pg++ {
			addr := a + mem.Addr(pg)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJournalCapturePooled pins the buffer pool: once warm, capturing a
// page's pre-image must not allocate a fresh page-sized buffer. The
// assertion is on allocated bytes (runtime.MemStats.TotalAlloc is a
// monotonic allocation counter, immune to GC timing): without the pool each
// captured page costs ≥ mem.PageSize; with it, only the journal's index and
// order bookkeeping remain.
func TestJournalCapturePooled(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(256 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	const pages = 64
	a := p.Space.AllocPages(pages*mem.PageSize, "v")
	th := sim.NewThread("t")
	body := func(env *ddc.Env) {
		for pg := 0; pg < pages; pg++ {
			addr := a + mem.Addr(pg)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
	call := func() {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pool (first call allocates the buffers that then recycle).
	call()
	call()

	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*pages)
	if perPage >= mem.PageSize/2 {
		t.Fatalf("journal capture allocates %.0f B per captured page; pool not recycling (unpooled cost ≥ %d B)",
			perPage, mem.PageSize)
	}
}
