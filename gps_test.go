package gps

import (
	"strings"
	"testing"
)

// buildHaloProgram records a small 2-GPU halo-exchange program: two
// ping-pong arrays, each GPU writes its half and reads one halo line block
// from its neighbor, for iters half-steps. The tracking window covers the
// first two half-steps — a full ping-pong iteration, as in the paper's
// Listing 1 — so both arrays' read sets are profiled.
func buildHaloProgram(t *testing.T, cfg Config, iters int) (*System, *Buffer, *Buffer) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const arr = 1 << 20 // 1 MB per array
	a, err := sys.MallocGPS("a", arr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.MallocGPS("b", arr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrackingStart(); err != nil {
		t.Fatal(err)
	}
	half := uint64(arr / 2)
	halo := uint64(64 << 10)
	for it := 0; it < iters; it++ {
		src, dst := a, b
		if it%2 == 1 {
			src, dst = b, a
		}
		k0 := sys.NewKernel(0, "sweep0").
			Compute(50e6).
			Load(src, 0, half+halo). // own half plus neighbor halo
			Store(dst, 0, half)
		k1 := sys.NewKernel(1, "sweep1").
			Compute(50e6).
			Load(src, half-halo, half+halo).
			Store(dst, half, half)
		if err := sys.Launch(k0, k1); err != nil {
			t.Fatal(err)
		}
		if it == 1 {
			if err := sys.TrackingStop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys, a, b
}

func TestQuickstartEndToEnd(t *testing.T) {
	sys, _, _ := buildHaloProgram(t, Config{GPUs: 2, Interconnect: PCIe4, Paradigm: ParadigmGPS}, 4)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.SteadyTime <= 0 || res.SteadyTime > res.TotalTime {
		t.Fatalf("times: %+v", res)
	}
	if res.SubscriberHistogram == nil {
		t.Fatal("GPS run lacks subscriber histogram")
	}
	// Interior pages must have been unsubscribed down to one subscriber;
	// halo pages keep two.
	if res.SubscriberHistogram[1] == 0 || res.SubscriberHistogram[2] == 0 {
		t.Fatalf("histogram = %v, want both 1- and 2-subscriber pages", res.SubscriberHistogram)
	}
	if res.InterconnectBytes == 0 {
		t.Fatal("halo exchange must move data")
	}
	if !strings.Contains(res.String(), "GPS") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestRunWithComparesParadigms(t *testing.T) {
	sys, _, _ := buildHaloProgram(t, Config{GPUs: 2, Interconnect: PCIe3, Paradigm: ParadigmGPS}, 4)
	gpsRes, err := sys.RunWith(ParadigmGPS, PCIe3)
	if err != nil {
		t.Fatal(err)
	}
	umRes, err := sys.RunWith(ParadigmUM, PCIe3)
	if err != nil {
		t.Fatal(err)
	}
	infRes, err := sys.RunWith(ParadigmInfinite, InfiniteBW)
	if err != nil {
		t.Fatal(err)
	}
	if gpsRes.SteadyTime >= umRes.SteadyTime {
		t.Fatalf("GPS (%v) should beat UM (%v)", gpsRes.SteadyTime, umRes.SteadyTime)
	}
	if infRes.SteadyTime > gpsRes.SteadyTime {
		t.Fatal("infinite BW must lower-bound GPS")
	}
	if umRes.PageFaults == 0 {
		t.Fatal("UM run should fault")
	}
	if gpsRes.PageFaults != 0 {
		t.Fatal("GPS run should not fault")
	}
}

func TestManualSubscription(t *testing.T) {
	sys, err := NewSystem(Config{GPUs: 4, Interconnect: PCIe4, Paradigm: ParadigmGPS})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sys.MallocGPSManual("shared", 1<<20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe(buf, 2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Unsubscribe(buf, 1); err != nil {
		t.Fatal(err)
	}
	// Cannot remove below one subscriber.
	if err := sys.Unsubscribe(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Unsubscribe(buf, 2); err == nil {
		t.Fatal("unsubscribing the last subscriber should fail")
	}
	// Unsubscribing a non-member fails.
	if err := sys.Unsubscribe(buf, 3); err == nil {
		t.Fatal("unsubscribing a non-member should fail")
	}
	// Manual pages keep their set through a run even with tracking.
	k := sys.NewKernel(2, "writer").Compute(1e6).Store(buf, 0, 1<<20)
	if err := sys.Launch(k); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SubscriberHistogram == nil {
		t.Fatal("no histogram")
	}
}

func TestManualBufferValidation(t *testing.T) {
	sys, _ := NewSystem(Config{GPUs: 2})
	if _, err := sys.MallocGPSManual("x", 1<<20); err == nil {
		t.Fatal("empty subscriber list accepted")
	}
	if _, err := sys.MallocGPSManual("x", 1<<20, 5); err == nil {
		t.Fatal("out-of-range subscriber accepted")
	}
	auto, _ := sys.MallocGPS("auto", 1<<20)
	if err := sys.Subscribe(auto, 1); err == nil {
		t.Fatal("Subscribe on automatic buffer should fail")
	}
}

func TestAllocationValidation(t *testing.T) {
	sys, _ := NewSystem(Config{GPUs: 2})
	if _, err := sys.MallocGPS("z", 0); err == nil {
		t.Fatal("zero-size accepted")
	}
	if _, err := sys.MallocGPS("big", 1<<34); err == nil {
		t.Fatal("oversized accepted")
	}
	if _, err := sys.MallocGPS("dup", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MallocGPS("dup", 1<<20); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := sys.Malloc("pinned", 1<<20, 9); err == nil {
		t.Fatal("bad device accepted")
	}
}

func TestKernelValidation(t *testing.T) {
	sys, _ := NewSystem(Config{GPUs: 2})
	buf, _ := sys.MallocGPS("b", 1<<20)
	// Out-of-range access surfaces at Launch.
	bad := sys.NewKernel(0, "bad").Load(buf, 1<<20, 128)
	if err := sys.Launch(bad); err == nil {
		t.Fatal("out-of-range access accepted")
	}
	// Bad device.
	if err := sys.Launch(sys.NewKernel(7, "dev").Compute(1)); err == nil {
		t.Fatal("bad device accepted")
	}
	// Two kernels on one device in one phase.
	k1 := sys.NewKernel(0, "a").Compute(1)
	k2 := sys.NewKernel(0, "b").Compute(1)
	if err := sys.Launch(k1, k2); err == nil {
		t.Fatal("duplicate device accepted")
	}
	// Empty kernel.
	if err := sys.Launch(sys.NewKernel(0, "idle")); err == nil {
		t.Fatal("empty kernel accepted")
	}
	// Empty launch.
	if err := sys.Launch(); err == nil {
		t.Fatal("empty launch accepted")
	}
	// Launch seals a builder's stream: relaunching replays it again, and
	// appending to it afterwards is rejected rather than silently dropped.
	k := sys.NewKernel(1, "again").Store(buf, 0, 1<<12)
	for i := 0; i < 2; i++ {
		if err := sys.Launch(k); err != nil {
			t.Fatal(err)
		}
		if got := sys.phases[len(sys.phases)-1].Kernels[0].NumAccesses(); got != 32 {
			t.Fatalf("launch %d replays %d accesses, want 32", i, got)
		}
	}
	if err := sys.Launch(k.FenceSys()); err == nil {
		t.Fatal("kernel modified after launch accepted")
	}
}

func TestTrackingWindowRules(t *testing.T) {
	sys, _ := NewSystem(Config{GPUs: 2})
	buf, _ := sys.MallocGPS("b", 1<<20)
	if err := sys.TrackingStop(); err == nil {
		t.Fatal("TrackingStop before start accepted")
	}
	if err := sys.TrackingStart(); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrackingStart(); err == nil {
		t.Fatal("double TrackingStart accepted")
	}
	if err := sys.TrackingStop(); err == nil {
		t.Fatal("empty tracking window accepted")
	}
	if err := sys.Launch(sys.NewKernel(0, "k").Store(buf, 0, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrackingStop(); err != nil {
		t.Fatal(err)
	}
	// Run with an open window is rejected.
	sys2, _ := NewSystem(Config{GPUs: 2})
	b2, _ := sys2.MallocGPS("b", 1<<20)
	sys2.TrackingStart()
	sys2.Launch(sys2.NewKernel(0, "k").Store(b2, 0, 1<<20))
	if _, err := sys2.Run(); err == nil {
		t.Fatal("Run with open tracking window accepted")
	}
}

func TestRunWithoutKernelsFails(t *testing.T) {
	sys, _ := NewSystem(Config{GPUs: 2})
	if _, err := sys.Run(); err != nil {
		if !strings.Contains(err.Error(), "no kernels") {
			t.Fatalf("unexpected error: %v", err)
		}
	} else {
		t.Fatal("empty run accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{GPUs: 0}); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	if _, err := NewSystem(Config{GPUs: 100}); err == nil {
		t.Fatal("too many GPUs accepted")
	}
	if _, err := NewSystem(Config{GPUs: 2, Paradigm: Paradigm(99)}); err == nil {
		t.Fatal("bad paradigm accepted")
	}
	if _, err := NewSystem(Config{GPUs: 2, Interconnect: Interconnect(99)}); err == nil {
		t.Fatal("bad interconnect accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, p := range Paradigms() {
		if strings.HasPrefix(p.String(), "Paradigm(") {
			t.Errorf("paradigm %d lacks a name", int(p))
		}
	}
	for _, ic := range []Interconnect{PCIe3, PCIe4, PCIe5, PCIe6, NVLinkSwitch, InfiniteBW} {
		if strings.HasPrefix(ic.String(), "Interconnect(") {
			t.Errorf("interconnect %d lacks a name", int(ic))
		}
	}
}

func TestHigherBandwidthHelpsUserProgram(t *testing.T) {
	sys, _, _ := buildHaloProgram(t, Config{GPUs: 2, Paradigm: ParadigmMemcpy}, 4)
	slow, err := sys.RunWith(ParadigmMemcpy, PCIe3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.RunWith(ParadigmMemcpy, PCIe6)
	if err != nil {
		t.Fatal(err)
	}
	if fast.SteadyTime > slow.SteadyTime {
		t.Fatalf("PCIe6 (%v) slower than PCIe3 (%v)", fast.SteadyTime, slow.SteadyTime)
	}
}

func TestNewParadigmVariantsRun(t *testing.T) {
	sys, _, _ := buildHaloProgram(t, Config{GPUs: 2, Interconnect: PCIe4, Paradigm: ParadigmGPS}, 4)
	gpsRes, err := sys.RunWith(ParadigmGPS, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	// Unsubscribed-by-default: same steady state, pricier profiling.
	unsub, err := sys.RunWith(ParadigmGPSUnsubDefault, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	if r := unsub.SteadyTime / gpsRes.SteadyTime; r < 0.9 || r > 1.1 {
		t.Fatalf("steady states diverge: %v", r)
	}
	if unsub.TotalTime <= gpsRes.TotalTime {
		t.Fatal("unsubscribed-by-default profiling should cost more in total")
	}
	// Pipelined memcpy improves on plain memcpy.
	mc, err := sys.RunWith(ParadigmMemcpy, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	async, err := sys.RunWith(ParadigmMemcpyAsync, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	if async.SteadyTime > mc.SteadyTime*1.001 {
		t.Fatalf("pipelining slowed memcpy: %v vs %v", async.SteadyTime, mc.SteadyTime)
	}
	if gpsRes.SteadyTime > async.SteadyTime*1.001 {
		t.Fatal("GPS should match or beat pipelined memcpy")
	}
}

func TestResultBreakdownAttribution(t *testing.T) {
	sys, _, _ := buildHaloProgram(t, Config{GPUs: 2, Interconnect: PCIe3, Paradigm: ParadigmMemcpy}, 4)
	mc, err := sys.RunWith(ParadigmMemcpy, PCIe3)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Breakdown.Bulk <= 0 {
		t.Fatal("memcpy run should spend time in bulk transfers")
	}
	if mc.Breakdown.Kernel <= 0 || mc.Breakdown.Overhead <= 0 {
		t.Fatalf("breakdown incomplete: %+v", mc.Breakdown)
	}
	um, err := sys.RunWith(ParadigmUM, PCIe3)
	if err != nil {
		t.Fatal(err)
	}
	if um.Breakdown.Stall <= mc.Breakdown.Stall {
		t.Fatal("UM should stall more than memcpy")
	}
	inf, err := sys.RunWith(ParadigmInfinite, InfiniteBW)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Breakdown.Bulk != 0 || inf.Breakdown.Stall != 0 {
		t.Fatalf("infinite run should have no transfer time: %+v", inf.Breakdown)
	}
}
