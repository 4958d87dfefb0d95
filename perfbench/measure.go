package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tail returns the highest percentile of xs, capped at p95, that still
// has at least ten samples above it, together with the percentile it
// used. With ten samples or fewer no such percentile exists and the
// maximum is returned as the 100th.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		s := sorted(xs)
		if n == 0 {
			return 0, 100
		}
		return s[n-1], 100
	}
	s := sorted(xs)
	idx := int(math.Ceil(0.95*float64(n))) - 1
	if n-1-idx < 10 {
		idx = n - 11
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// memDelta is what the Go runtime did between two reads: bytes and
// objects allocated, GC cycles, and stop-the-world pause time.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	pauseNs    uint64
}

type memMark runtime.MemStats

func readMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m *memMark) since(before *memMark) memDelta {
	return memDelta{
		allocBytes: m.TotalAlloc - before.TotalAlloc,
		mallocs:    m.Mallocs - before.Mallocs,
		gcCycles:   m.NumGC - before.NumGC,
		pauseNs:    m.PauseTotalNs - before.PauseTotalNs,
	}
}

// heapSampler records the largest heap (bytes in live and
// not-yet-swept objects) seen while it runs. It reads runtime/metrics,
// which does not stop the world, every few milliseconds on one
// otherwise idle goroutine.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in bytes
// (including one final reading).
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// span is one timed interval the benchmark recorded around a call into
// a layer of the program. Parent is the index of the enclosing span, or
// -1; Track separates concurrent goroutines (rides, shards).
type span struct {
	Name   string
	Parent int
	Track  int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory for the traced run; a nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Track: track, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}
