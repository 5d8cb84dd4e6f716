// Package config defines the architecture configuration of the simulated
// GPU. The defaults reproduce Table 1 of the paper: a Maxwell-like GPU
// with 16 SMs, four greedy-then-oldest warp schedulers per SM, a 24 KB
// six-way L1 D-cache with 128 MSHRs, a 2 MB sixteen-partition L2, a 16x16
// crossbar and sixteen FR-FCFS DRAM channels.
package config

import "fmt"

// SchedulerPolicy selects the warp scheduling policy within an SM.
type SchedulerPolicy int

const (
	// GTO is greedy-then-oldest: keep issuing from the warp that issued
	// last; when it stalls, fall back to the oldest ready warp.
	GTO SchedulerPolicy = iota
	// LRR is loose round-robin over the warps of a scheduler.
	LRR
)

func (p SchedulerPolicy) String() string {
	switch p {
	case GTO:
		return "GTO"
	case LRR:
		return "LRR"
	default:
		return fmt.Sprintf("SchedulerPolicy(%d)", int(p))
	}
}

// SM configures one streaming multiprocessor.
type SM struct {
	Schedulers int // warp schedulers (issue slots per cycle)
	MaxThreads int // resident thread limit
	MaxWarps   int // resident warp limit
	MaxTBs     int // thread block slots
	Registers  int // 32-bit registers in the register file
	SmemBytes  int // shared memory capacity in bytes

	ALUPorts int // ALU instructions accepted per cycle
	SFUPorts int // SFU instructions accepted per cycle
	ALULat   int // ALU result latency in cycles
	SFULat   int // SFU result latency in cycles

	Scheduler SchedulerPolicy
}

// Cache configures one cache (L1D or one L2 partition).
type Cache struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	MSHRs      int
	MSHRMerge  int // max requests merged into one MSHR entry
	MissQueue  int // miss queue entries (requests awaiting injection)
	HitLatency int // cycles from access to data for a hit
	XORIndex   bool
	WriteBack  bool // true: write-back/write-allocate; false: write-evict/write-no-allocate
}

// Sets returns the number of sets implied by size, line and ways.
func (c Cache) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Ways)
}

// Icnt configures the SM<->memory-partition crossbar.
type Icnt struct {
	FlitBytes     int // flit width
	FlitsPerCycle int // flits a port moves per cycle (link bandwidth)
	Latency       int // fixed traversal latency in cycles
	QueueDepth    int // packets buffered per port per direction
	HeaderFlits   int // flits for a packet header
}

// DRAM configures one memory channel.
type DRAM struct {
	Banks       int
	RowBytes    int
	RowHitLat   int // bank busy cycles for a row-buffer hit
	RowMissLat  int // bank busy cycles for a row-buffer miss (precharge+activate)
	DataCycles  int // data bus cycles to transfer one cache line
	QueueDepth  int // per-channel request queue
	ReturnQueue int // per-channel response queue toward the interconnect
}

// Config is the full GPU configuration.
type Config struct {
	NumSMs      int
	WarpSize    int
	NumMemParts int // L2 partitions == DRAM channels

	SM   SM
	L1D  Cache
	L2   Cache // per partition
	Icnt Icnt
	DRAM DRAM

	// L2ExtraLat models the pipeline depth between interconnect ejection
	// and L2 tag access.
	L2ExtraLat int

	Seed uint64
}

// Default returns the Table 1 baseline configuration.
func Default() Config {
	return Config{
		NumSMs:      16,
		WarpSize:    32,
		NumMemParts: 16,
		SM: SM{
			Schedulers: 4,
			MaxThreads: 3072,
			MaxWarps:   96,
			MaxTBs:     16,
			Registers:  65536,
			SmemBytes:  96 * 1024,
			ALUPorts:   4,
			SFUPorts:   1,
			ALULat:     10,
			SFULat:     20,
			Scheduler:  GTO,
		},
		L1D: Cache{
			SizeBytes:  24 * 1024,
			LineBytes:  128,
			Ways:       6,
			MSHRs:      128,
			MSHRMerge:  8,
			MissQueue:  16,
			HitLatency: 28,
			XORIndex:   true,
			WriteBack:  false, // write-evict / write-no-allocate
		},
		L2: Cache{
			SizeBytes:  128 * 1024,
			LineBytes:  128,
			Ways:       16,
			MSHRs:      128,
			MSHRMerge:  8,
			MissQueue:  16,
			HitLatency: 30,
			XORIndex:   true,
			WriteBack:  true, // write-back / write-allocate
		},
		Icnt: Icnt{
			FlitBytes:     32,
			FlitsPerCycle: 8,
			Latency:       8,
			QueueDepth:    8,
			HeaderFlits:   1,
		},
		DRAM: DRAM{
			Banks:       16,
			RowBytes:    2048,
			RowHitLat:   24,
			RowMissLat:  72,
			DataCycles:  4,
			QueueDepth:  32,
			ReturnQueue: 32,
		},
		L2ExtraLat: 8,
		Seed:       1,
	}
}

// Scaled returns a configuration with nSMs SMs and a proportionally scaled
// memory system (one L2 partition/DRAM channel per SM, as in the
// baseline's 1:1 ratio). Per-SM behaviour is preserved, which is what the
// intra-SM sharing study measures; the experiment harness uses this to
// keep sweep run times practical while cmd flags allow the full 16-SM
// machine.
func Scaled(nSMs int) Config {
	c := Default()
	if nSMs <= 0 {
		nSMs = 1
	}
	c.NumSMs = nSMs
	c.NumMemParts = nSMs
	return c
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	if c.NumSMs <= 0 {
		return fmt.Errorf("config: NumSMs must be positive, got %d", c.NumSMs)
	}
	if c.WarpSize <= 0 {
		return fmt.Errorf("config: WarpSize must be positive, got %d", c.WarpSize)
	}
	if c.NumMemParts <= 0 {
		return fmt.Errorf("config: NumMemParts must be positive, got %d", c.NumMemParts)
	}
	if c.SM.Schedulers <= 0 {
		return fmt.Errorf("config: SM.Schedulers must be positive, got %d", c.SM.Schedulers)
	}
	if c.SM.MaxWarps%c.SM.Schedulers != 0 {
		return fmt.Errorf("config: MaxWarps (%d) must be divisible by Schedulers (%d)",
			c.SM.MaxWarps, c.SM.Schedulers)
	}
	if c.SM.MaxThreads != c.SM.MaxWarps*c.WarpSize {
		return fmt.Errorf("config: MaxThreads (%d) != MaxWarps*WarpSize (%d)",
			c.SM.MaxThreads, c.SM.MaxWarps*c.WarpSize)
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1D", c.L1D}, {"L2", c.L2}} {
		if cc.c.LineBytes <= 0 || cc.c.Ways <= 0 || cc.c.SizeBytes <= 0 {
			return fmt.Errorf("config: %s geometry must be positive", cc.name)
		}
		sets := cc.c.Sets()
		if sets <= 0 || sets*cc.c.LineBytes*cc.c.Ways != cc.c.SizeBytes {
			return fmt.Errorf("config: %s size %dB not divisible into %d-way sets of %dB lines",
				cc.name, cc.c.SizeBytes, cc.c.Ways, cc.c.LineBytes)
		}
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s set count %d must be a power of two", cc.name, sets)
		}
		if cc.c.MSHRs <= 0 || cc.c.MissQueue <= 0 {
			return fmt.Errorf("config: %s MSHRs and MissQueue must be positive", cc.name)
		}
	}
	if c.L1D.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("config: L1D and L2 line sizes differ (%d vs %d)",
			c.L1D.LineBytes, c.L2.LineBytes)
	}
	if c.DRAM.Banks <= 0 || c.DRAM.DataCycles <= 0 {
		return fmt.Errorf("config: DRAM Banks and DataCycles must be positive")
	}
	return nil
}
