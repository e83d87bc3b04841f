package gpuconf

import "testing"

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	g := c.GPU
	if g.CacheBlockBytes != 128 {
		t.Errorf("cache block = %d, want 128", g.CacheBlockBytes)
	}
	if g.GlobalMemory != 16*GB {
		t.Errorf("global memory = %d, want 16 GB", g.GlobalMemory)
	}
	if g.SMs != 80 || g.CoresPerSM != 64 {
		t.Errorf("SM geometry = %dx%d, want 80x64", g.SMs, g.CoresPerSM)
	}
	if g.L2Bytes != 6*MB {
		t.Errorf("L2 = %d, want 6 MB", g.L2Bytes)
	}
	if g.WarpSize != 32 || g.MaxThreadsPerSM != 2048 || g.MaxThreadsPerCTA != 1024 {
		t.Errorf("thread geometry mismatch with Table 1")
	}
	if g.VirtualAddrBits != 49 || g.PhysicalAddrBits != 47 {
		t.Errorf("address bits = %d/%d, want 49/47", g.VirtualAddrBits, g.PhysicalAddrBits)
	}
	s := c.GPS
	if s.WriteQueueEntries != 512 {
		t.Errorf("write queue = %d entries, want 512", s.WriteQueueEntries)
	}
	if s.WriteQueueEntrySize != 135 {
		t.Errorf("write queue entry = %d B, want 135", s.WriteQueueEntrySize)
	}
	if s.TLBEntries != 32 || s.TLBWays != 8 {
		t.Errorf("GPS-TLB = %d entries %d ways, want 32/8", s.TLBEntries, s.TLBWays)
	}
}

func TestWriteQueueSRAMBudget(t *testing.T) {
	// The paper: "with 512 entries, the GPS-write buffer requires 68 KB of
	// SRAM storage".
	got := DefaultGPS().WriteQueueSRAMBytes()
	if got != 512*135 {
		t.Fatalf("SRAM = %d, want %d", got, 512*135)
	}
	if got < 67*KB || got > 69*KB {
		t.Fatalf("SRAM = %d bytes, want ~68 KB", got)
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mut := []struct {
		name string
		f    func(*Config)
	}{
		{"zero cache block", func(c *Config) { c.GPU.CacheBlockBytes = 0 }},
		{"non pow2 cache block", func(c *Config) { c.GPU.CacheBlockBytes = 100 }},
		{"zero page", func(c *Config) { c.GPU.PageBytes = 0 }},
		{"non pow2 page", func(c *Config) { c.GPU.PageBytes = 3000 }},
		{"block > page", func(c *Config) { c.GPU.PageBytes = 64; c.GPU.CacheBlockBytes = 128 }},
		{"zero bandwidth", func(c *Config) { c.GPU.DRAMBandwidth = 0 }},
		{"zero clock", func(c *Config) { c.GPU.ClockHz = 0 }},
		{"zero SMs", func(c *Config) { c.GPU.SMs = 0 }},
		{"zero queue", func(c *Config) { c.GPS.WriteQueueEntries = 0 }},
		{"tlb ways mismatch", func(c *Config) { c.GPS.TLBEntries = 33 }},
	}
	for _, m := range mut {
		c := Default()
		m.f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

func TestPeakFLOPs(t *testing.T) {
	g := GV100()
	got := g.PeakFLOPs()
	// 80 SMs * 64 cores * 1.38 GHz * 2 = ~14.1 TFLOPs, V100-class.
	if got < 13e12 || got > 16e12 {
		t.Fatalf("peak FLOPs = %g, want ~14e12", got)
	}
}
