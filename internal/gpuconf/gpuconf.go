// Package gpuconf holds the machine descriptions used throughout the
// simulator. The default configuration mirrors Table 1 of the GPS paper
// (MICRO 2021): an NVIDIA GV100 (Volta V100-class) GPU plus the GPS
// structure sizes chosen in the paper's final proposal.
package gpuconf

import "fmt"

// Common size units in bytes.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// GPU describes one GPU's microarchitectural parameters, following Table 1.
type GPU struct {
	Name string

	// Geometry.
	CacheBlockBytes  int    // cache block (line) size; 128 B on GV100
	GlobalMemory     uint64 // HBM capacity in bytes
	SMs              int    // streaming multiprocessors
	CoresPerSM       int    // CUDA cores per SM
	L2Bytes          uint64 // L2 cache capacity
	WarpSize         int
	MaxThreadsPerSM  int
	MaxThreadsPerCTA int

	// Timing.
	ClockHz       float64 // SM clock
	DRAMBandwidth float64 // local HBM bandwidth, bytes/s
	DRAMLatency   float64 // local load-to-use latency, seconds

	// Virtual memory.
	PageBytes        uint64 // default translation granularity (64 KB for GPS)
	VirtualAddrBits  int
	PhysicalAddrBits int
	TLBEntries       int // last-level conventional TLB entries
	TLBWays          int
	PageWalkLatency  float64 // seconds per full page walk

	// Unified-Memory costs.
	PageFaultLatency float64 // GPU-visible cost of one fault+migrate round trip
	TLBShootdown     float64 // cost of collapsing a replicated page

	// Latency hiding: maximum outstanding remote memory requests the GPU can
	// sustain before remote loads stall execution (aggregate across SMs).
	RemoteMLP int
}

// GPS describes the GPS hardware structures from Table 1.
type GPS struct {
	WriteQueueEntries   int // remote write queue capacity (cache blocks)
	WriteQueueEntrySize int // bytes of SRAM per entry (135 B in the paper)
	TLBEntries          int // GPS-TLB entries (32 in the paper)
	TLBWays             int // 8-way set associative
}

// Config bundles a GPU model with its GPS structures.
type Config struct {
	GPU GPU
	GPS GPS
}

// GV100 returns the Table 1 configuration: an NVIDIA V100-class GPU.
func GV100() GPU {
	return GPU{
		Name:             "GV100",
		CacheBlockBytes:  128,
		GlobalMemory:     16 * GB,
		SMs:              80,
		CoresPerSM:       64,
		L2Bytes:          6 * MB,
		WarpSize:         32,
		MaxThreadsPerSM:  2048,
		MaxThreadsPerCTA: 1024,

		ClockHz:       1.38e9,
		DRAMBandwidth: 900e9, // ~900 GB/s HBM2
		DRAMLatency:   400e-9,

		PageBytes:        64 * KB,
		VirtualAddrBits:  49,
		PhysicalAddrBits: 47,
		TLBEntries:       4096,
		TLBWays:          16,
		PageWalkLatency:  600e-9,

		PageFaultLatency: 15e-6, // amortized fault+migrate cost (driver batches nearby faults)
		TLBShootdown:     3e-6,

		RemoteMLP: 64,
	}
}

// DefaultGPS returns the paper's final GPS structure sizes.
func DefaultGPS() GPS {
	return GPS{
		WriteQueueEntries:   512,
		WriteQueueEntrySize: 135,
		TLBEntries:          32,
		TLBWays:             8,
	}
}

// Default returns the full Table 1 configuration.
func Default() Config {
	return Config{GPU: GV100(), GPS: DefaultGPS()}
}

// PeakFLOPs returns the GPU's peak single-precision operation throughput in
// operations per second (one FMA counted as two ops, matching vendor specs).
func (g GPU) PeakFLOPs() float64 {
	return float64(g.SMs) * float64(g.CoresPerSM) * g.ClockHz * 2
}

// WriteQueueSRAMBytes returns the SRAM footprint of the remote write queue.
func (s GPS) WriteQueueSRAMBytes() int {
	return s.WriteQueueEntries * s.WriteQueueEntrySize
}

// Validate reports a descriptive error for physically meaningless settings.
func (c Config) Validate() error {
	g := c.GPU
	switch {
	case g.CacheBlockBytes <= 0 || g.CacheBlockBytes&(g.CacheBlockBytes-1) != 0:
		return fmt.Errorf("gpuconf: cache block size %d must be a positive power of two", g.CacheBlockBytes)
	case g.PageBytes == 0 || g.PageBytes&(g.PageBytes-1) != 0:
		return fmt.Errorf("gpuconf: page size %d must be a positive power of two", g.PageBytes)
	case uint64(g.CacheBlockBytes) > g.PageBytes:
		return fmt.Errorf("gpuconf: cache block %d larger than page %d", g.CacheBlockBytes, g.PageBytes)
	case g.DRAMBandwidth <= 0:
		return fmt.Errorf("gpuconf: DRAM bandwidth must be positive")
	case g.ClockHz <= 0:
		return fmt.Errorf("gpuconf: clock must be positive")
	case g.SMs <= 0 || g.CoresPerSM <= 0:
		return fmt.Errorf("gpuconf: SM geometry must be positive")
	}
	s := c.GPS
	switch {
	case s.WriteQueueEntries <= 0:
		return fmt.Errorf("gpuconf: write queue must have at least one entry")
	case s.TLBEntries <= 0 || s.TLBWays <= 0 || s.TLBEntries%s.TLBWays != 0:
		return fmt.Errorf("gpuconf: GPS-TLB %d entries / %d ways invalid", s.TLBEntries, s.TLBWays)
	}
	return nil
}
