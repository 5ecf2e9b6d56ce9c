// Package wmsim is a deterministic discrete-event performance simulator
// for multicore machines with weak memory: the stand-in for the paper's
// evaluation platforms (§4.1) — a 128-core 2-socket ARMv8 TaiShan 200
// and a 96-thread 2-socket x86 EPYC server — which we cannot run on.
//
// The simulator executes the *same* lock implementations as the model
// checker (they program against vprog.Mem) under a cache-coherence and
// barrier-latency cost model. It does not simulate weak-memory
// *semantics* (the model checker owns correctness); it charges the
// *costs* that differentiate the paper's sc-only and VSync-optimized
// variants: on ARMv8, acquire/release/SC accesses and dmb fences cost
// extra cycles; on x86/TSO, plain and acquire/release accesses are free
// of ordering cost but SC stores and fences drain the store buffer, and
// every RMW is a locked instruction.
//
// Threads advance private virtual clocks; a token-passing scheduler
// always runs the thread with the smallest clock, so executions are
// deterministic given the seed. Seed-dependent cost jitter (±5%)
// produces the run-to-run variation the paper's stability metric
// (Table 3/4, Fig. 23) summarizes.
package wmsim

import "repro/internal/vprog"

// Machine is a simulated platform: topology, frequency and the cost
// model (all latencies in cycles).
type Machine struct {
	// Name identifies the platform in records ("ARMv8", "x86_64").
	Name string
	// Cores is the maximum thread count (the paper: 128 ARM, 96 x86).
	Cores int
	// Clusters is the number of NUMA nodes (2 sockets on both).
	Clusters int
	// FreqGHz converts cycles to seconds (the paper fixes 1.5 GHz).
	FreqGHz float64

	// Cache hierarchy.
	L1Hit      uint64 // load/store hit in own L1
	LocalMiss  uint64 // transfer from a core in the same cluster
	RemoteMiss uint64 // transfer across the interconnect
	StoreOwned uint64 // store to an exclusively-owned line

	// Ordering costs, added on top of the cache cost.
	LoadExtra  func(m vprog.Mode) uint64
	StoreExtra func(m vprog.Mode) uint64
	RMWBase    uint64 // base cost of any atomic read-modify-write
	RMWExtra   func(m vprog.Mode) uint64
	FenceCost  func(m vprog.Mode) uint64

	// PauseCost is the spin-wait hint (yield/wfe) latency.
	PauseCost uint64
	// WorkCost is one unit of non-memory critical-section work.
	WorkCost uint64
}

// ClusterOf maps a thread/core to its NUMA node (threads are pinned in
// cluster order, mirroring the paper's numactl binding).
func (mc *Machine) ClusterOf(tid, nthreads int) int {
	if nthreads <= mc.Cores/mc.Clusters {
		return 0 // all threads fit on node 0 (membind=0 in the paper)
	}
	per := mc.Cores / mc.Clusters
	c := tid / per
	if c >= mc.Clusters {
		c = mc.Clusters - 1
	}
	return c
}

// ARMv8 models the TaiShan 200 (Kunpeng 920, 128 cores, 2 sockets):
// barriers have real cost at every strength (dmb ishld/ish, ldar/stlr).
func ARMv8() *Machine {
	return &Machine{
		Name:       "ARMv8",
		Cores:      128,
		Clusters:   2,
		FreqGHz:    1.5,
		L1Hit:      4,
		LocalMiss:  48,
		RemoteMiss: 130,
		StoreOwned: 6,
		LoadExtra: func(m vprog.Mode) uint64 {
			switch m {
			case vprog.Acq, vprog.AcqRel:
				return 8 // ldar
			case vprog.SC:
				return 14 // ldar + stronger ordering
			default:
				return 0
			}
		},
		StoreExtra: func(m vprog.Mode) uint64 {
			switch m {
			case vprog.Rel, vprog.AcqRel:
				return 9 // stlr
			case vprog.SC:
				return 16
			default:
				return 0
			}
		},
		RMWBase: 16,
		RMWExtra: func(m vprog.Mode) uint64 {
			switch m {
			case vprog.Acq, vprog.Rel:
				return 8
			case vprog.AcqRel:
				return 12
			case vprog.SC:
				return 22
			default:
				return 0
			}
		},
		FenceCost: func(m vprog.Mode) uint64 {
			switch m {
			case vprog.Acq:
				return 14 // dmb ishld
			case vprog.Rel, vprog.AcqRel:
				return 22 // dmb ish
			case vprog.SC:
				return 38 // dmb sy
			default:
				return 0
			}
		},
		PauseCost: 24, // isb/yield spin hint
		WorkCost:  3,
	}
}

// X86 models the GIGABYTE EPYC 7352 (48 cores / 96 threads, 2 sockets):
// TSO gives plain, acquire and release accesses for free; SC stores and
// fences cost an mfence-style drain; every RMW is a locked instruction
// with full-barrier semantics regardless of the requested mode.
func X86() *Machine {
	return &Machine{
		Name:       "x86_64",
		Cores:      96,
		Clusters:   2,
		FreqGHz:    1.5,
		L1Hit:      4,
		LocalMiss:  44,
		RemoteMiss: 118,
		StoreOwned: 5,
		LoadExtra: func(m vprog.Mode) uint64 {
			return 0 // all loads are acquire on TSO
		},
		StoreExtra: func(m vprog.Mode) uint64 {
			if m == vprog.SC {
				return 42 // implicit store-buffer drain (xchg/mfence)
			}
			return 0
		},
		RMWBase: 24, // lock-prefixed instruction
		RMWExtra: func(m vprog.Mode) uint64 {
			// A locked RMW is already sequentially consistent, but the
			// sc-only variant's atomics (compiled the VSYNC way) emit a
			// trailing mfence as well — the cost behind the paper's large
			// x86 speedups for RMW-heavy locks (qspinlock, CAS locks).
			if m == vprog.SC {
				return 38
			}
			return 0
		},
		FenceCost: func(m vprog.Mode) uint64 {
			if m == vprog.SC {
				return 40 // mfence
			}
			return 0 // compiler-only barriers
		},
		PauseCost: 30, // pause instruction (rep nop)
		WorkCost:  3,
	}
}

// Machines returns the two evaluation platforms.
func Machines() []*Machine { return []*Machine{ARMv8(), X86()} }
