// Package ddc implements the disaggregated operating system substrate the
// paper builds on (§2.1, LegoOS-style): a compute pool whose local memory is
// nothing more than a page cache, a memory pool holding the process's entire
// address space behind a controller, and a storage pool the memory pool
// spills to. The same Machine, differently configured, also models the
// monolithic-Linux baselines (with and without an SSD swap path), so every
// experiment compares platforms that differ only in configuration.
//
// Application data lives as real bytes in a mem.Space; the ddc layer decides
// what every access costs (DRAM, fabric round trips, SSD paging) and
// maintains the residency/permission state that TELEPORT's coherence
// protocol (internal/core) manipulates during pushdown.
package ddc

import (
	"fmt"

	"teleport/internal/fault"
	"teleport/internal/hw"
	"teleport/internal/mem"
)

// Config selects a platform.
type Config struct {
	// HW is the hardware cost model.
	HW hw.Config

	// Disaggregated selects the DDC platforms. When false the machine is a
	// monolithic server.
	Disaggregated bool

	// ComputeCacheBytes bounds the compute pool's local memory (the paper
	// uses 1 GB). Only meaningful when Disaggregated. Zero means unlimited,
	// which degenerates to local execution and is rejected by Validate for
	// disaggregated configs.
	ComputeCacheBytes int64

	// MemoryPoolBytes bounds the memory pool's DRAM; pages beyond it spill
	// to the storage pool (Figure 15 sweeps this). Zero means unlimited.
	MemoryPoolBytes int64

	// LocalMemBytes bounds a monolithic server's DRAM; pages beyond it
	// swap to the local SSD (the "Linux with NVMe SSD" baseline of Figures
	// 1a, 14, 15). Zero means unlimited.
	LocalMemBytes int64

	// PrefetchDepth is the number of extra sequential pages the base DDC
	// fetches per miss, modelling LegoOS's caching/prefetching
	// optimisations (§1). Zero disables prefetch.
	PrefetchDepth int

	// PoolShards splits the memory pool across this many controllers, each
	// an independent crash domain under the fault plan's per-shard
	// schedules; pages stripe across shards by page ID (ShardOf). 0 or 1
	// keeps the single-controller pool. At most fault.MaxShards (511), so
	// every shard and link keeps a fault schedule of its own. Only
	// meaningful when Disaggregated.
	PoolShards int

	// Replicas keeps every page on this many distinct shards — its primary
	// plus R−1 backups, written synchronously (Machine.ReplicatePage) — so
	// reads fail over to a live replica during a single-shard outage. 0 or
	// 1 disables replication. Requires Replicas ≤ PoolShards.
	Replicas int

	// WriteQuorum is W, the number of replica acks a write needs before it
	// commits. A write that cannot reach a replica (shard crashed, or the
	// link to it partitioned) enqueues a deterministic hinted-handoff
	// record instead, and stalls only when fewer than W copies are
	// reachable. 0 or 1 keeps the legacy synchronous fan-out, which never
	// stalls (unreachable replicas are journalled for re-sync). Requires
	// W ≤ Replicas and W + R′ > Replicas (R′ = ReadQuorum).
	WriteQuorum int

	// ReadQuorum is R′, the number of distinct replicas a failover read
	// consults so that any committed write (W acks) intersects the read
	// set and staleness is detected, triggering read-repair. 0 derives the
	// smallest valid value: Replicas − W + 1 when W > 1, else 1.
	ReadQuorum int
}

// Linux returns a monolithic server with unlimited local memory (the paper's
// "Local execution" reference).
func Linux() Config {
	return Config{HW: hw.Testbed()}
}

// LinuxSSD returns a monolithic server whose DRAM is capped at localMem
// bytes, spilling to the NVMe SSD.
func LinuxSSD(localMem int64) Config {
	c := Linux()
	c.LocalMemBytes = localMem
	return c
}

// BaseDDC returns the disaggregated platform with the given compute-local
// cache, standing in for LegoOS.
func BaseDDC(cacheBytes int64) Config {
	return Config{
		HW:                hw.Testbed(),
		Disaggregated:     true,
		ComputeCacheBytes: cacheBytes,
		PrefetchDepth:     2,
	}
}

// Validate rejects nonsensical configurations.
func (c *Config) Validate() error {
	if err := c.HW.Validate(); err != nil {
		return err
	}
	if c.Disaggregated && c.ComputeCacheBytes <= 0 {
		return errConfig("disaggregated machine needs a finite compute cache")
	}
	if c.Disaggregated && c.LocalMemBytes != 0 {
		return errConfig("LocalMemBytes applies only to monolithic machines")
	}
	if !c.Disaggregated && (c.ComputeCacheBytes != 0 || c.MemoryPoolBytes != 0) {
		return errConfig("pool sizes apply only to disaggregated machines")
	}
	if c.PoolShards < 0 || c.Replicas < 0 {
		return errConfig("pool shards and replicas cannot be negative")
	}
	if c.PoolShards > fault.MaxShards {
		// Past the bound two links would share one fault schedule.
		return errConfig(fmt.Sprintf("pool shards cannot exceed %d", fault.MaxShards))
	}
	if !c.Disaggregated && (c.PoolShards > 1 || c.Replicas > 1) {
		return errConfig("pool shards and replicas apply only to disaggregated machines")
	}
	if c.Replicas > 1 && c.Replicas > c.PoolShards {
		return errConfig("replicas cannot exceed pool shards")
	}
	if c.WriteQuorum < 0 || c.ReadQuorum < 0 {
		return errConfig("write and read quorums cannot be negative")
	}
	if !c.Disaggregated && (c.WriteQuorum > 1 || c.ReadQuorum > 1) {
		return errConfig("write and read quorums apply only to disaggregated machines")
	}
	if r := c.EffReplicas(); c.WriteQuorum > 1 || c.ReadQuorum > 1 {
		if r <= 1 {
			return errConfig("write and read quorums require replication (Replicas > 1)")
		}
		if c.WriteQuorum > r {
			return errConfig("write quorum cannot exceed replicas")
		}
		if c.ReadQuorum > r {
			return errConfig("read quorum cannot exceed replicas")
		}
		if c.EffWriteQuorum()+c.EffReadQuorum() <= r {
			return errConfig("write quorum + read quorum must exceed replicas (W + R' > R)")
		}
	}
	return nil
}

// Shards returns the effective shard count of the memory pool (≥ 1).
func (c *Config) Shards() int {
	if !c.Disaggregated || c.PoolShards <= 1 {
		return 1
	}
	return c.PoolShards
}

// EffReplicas returns the effective per-page copy count, clamped to
// [1, Shards()].
func (c *Config) EffReplicas() int {
	r := c.Replicas
	if r <= 1 {
		return 1
	}
	if k := c.Shards(); r > k {
		return k
	}
	return r
}

// EffWriteQuorum returns the effective write quorum W, clamped to
// [1, EffReplicas()]. W == 1 is the legacy regime: a write commits as soon as
// its serving copy lands and every other replica is either written through or
// journalled, with no quorum stall.
func (c *Config) EffWriteQuorum() int {
	w := c.WriteQuorum
	if w <= 1 {
		return 1
	}
	if r := c.EffReplicas(); w > r {
		return r
	}
	return w
}

// EffReadQuorum returns the effective read quorum R′: the explicit ReadQuorum
// when set, otherwise the smallest value satisfying W + R′ > R (so a read set
// always intersects a committed write set), which is 1 in the legacy W ≤ 1
// regime.
func (c *Config) EffReadQuorum() int {
	r := c.EffReplicas()
	if r <= 1 {
		return 1
	}
	if rq := c.ReadQuorum; rq > 0 {
		if rq > r {
			return r
		}
		return rq
	}
	if w := c.EffWriteQuorum(); w > 1 {
		return r - w + 1
	}
	return 1
}

// CachePages converts ComputeCacheBytes into whole pages.
func (c *Config) CachePages() int { return int(c.ComputeCacheBytes / mem.PageSize) }

type errConfig string

func (e errConfig) Error() string { return "ddc: invalid config: " + string(e) }
