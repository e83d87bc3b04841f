package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail on Linux
	}
	return ru
}

// median of xs (mean of the two middle values for even counts); NaN when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// latencies is one class of per-operation latencies, in milliseconds.
type latencies struct {
	name string
	ms   []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) and whether at
// least minTail samples lie beyond it. A percentile without that tail is
// not reported: the caller counts it as a failed check.
func (l *latencies) percentile(p float64) (float64, bool) {
	n := len(l.ms)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// report records the class's p50 and p90 under prefix_p50_ms and
// prefix_p90_ms plus prefix_samples, or fails a check for each percentile
// that lacks its tail.
func (l *latencies) report(res *result, prefix string) {
	res.setLayer(prefix+"_samples", float64(len(l.ms)), "count")
	l.reportOne(res, prefix+"_p50_ms", 0.5)
	l.reportOne(res, prefix+"_p90_ms", 0.9)
}

// reportOne records a single percentile of the class as a per-layer metric.
func (l *latencies) reportOne(res *result, name string, p float64) {
	v, ok := l.percentile(p)
	if res.check(ok, "%s: %d samples leave fewer than %d beyond p%.0f", name, len(l.ms), minTail, p*100) {
		res.setLayer(name, v, "ms")
	} else {
		res.setLayer(name, 0, "ms")
	}
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: root
	Name   string           `json:"name"`
	Start  float64          `json:"start_s"` // seconds since the run began
	End    float64          `json:"end_s"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// spanLog keeps the traced run's spans in memory until the run ends. The
// gpsd callers share one; a span's counts are set only by the goroutine
// that opened it.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

// begin opens a span under parent (0 for a root) and returns it; end closes
// it. Counts are attached at the same boundary with count.
func (l *spanLog) begin(parent int, name string) *span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.epoch).Seconds()}
	l.spans = append(l.spans, s)
	return s
}

func (l *spanLog) end(s *span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.End = time.Since(l.epoch).Seconds()
}

func (s *span) count(name string, v int64) {
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += v
}

func (l *spanLog) len() int { return len(l.spans) }

func (l *spanLog) writeFile(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
