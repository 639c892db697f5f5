package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// window brackets one measured phase: the peak live heap sampled while
// it runs, and runtime counters read at both ends.
type window struct {
	heapPeak uint64
	allocs   uint64  // heap objects allocated during the window
	gcCPU    float64 // CPU seconds the runtime spent in GC
	busyCPU  float64 // CPU seconds the process used (available minus idle)

	stop chan struct{}
	done chan struct{}
	rt0  []metrics.Sample
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapSampleEvery paces the live-heap sampler: often enough to see the
// peak between collections of a busy phase, rarely enough to cost
// nothing measurable.
const heapSampleEvery = 5 * time.Millisecond

func openWindow() *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{}), rt0: readRuntime()}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(w.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(live)
			if v := live[0].Value.Uint64(); v > w.heapPeak {
				w.heapPeak = v
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *window) close() {
	close(w.stop)
	<-w.done
	rt1 := readRuntime()
	w.allocs = uint64(sampleValue(rt1[0]) - sampleValue(w.rt0[0]))
	w.gcCPU = sampleValue(rt1[1]) - sampleValue(w.rt0[1])
	w.busyCPU = sampleValue(rt1[2]) - sampleValue(w.rt0[2]) - (sampleValue(rt1[3]) - sampleValue(w.rt0[3]))
}

func (w *window) heapMB() float64 { return float64(w.heapPeak) / (1 << 20) }

// profiler takes the harness's CPU profile of a traced phase.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (attribution, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return attribution{}, err
	}
	return attribute(stacks), nil
}

// span is one timed call at a layer boundary. Parent is the index of
// the enclosing span (-1 for a root); Deploy ties every span of one
// rollout together.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Deploy  string `json:"deploy,omitempty"`
}

// spanRecorder keeps spans in memory while enabled; they are written
// out once the run ends.
type spanRecorder struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{base: time.Now()} }

// spanName names the control-plane call a request path makes: the
// fleet's /deploy on the controller daemon, and the node-side phases
// of the two-phase rollout it drives.
func spanName(path string) string {
	switch {
	case path == "/deploy":
		return "fleet.deploy"
	case strings.HasSuffix(path, "/healthz") && strings.HasPrefix(path, "/node/"):
		return "planpd.health"
	case strings.HasSuffix(path, "/asp/stage"):
		return "planpd.stage"
	case strings.HasSuffix(path, "/asp/activate"):
		return "planpd.activate"
	}
	return ""
}

// wrap records a span around every control-plane request h serves while
// the recorder is on.
func (r *spanRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := spanName(req.URL.Path)
		if !r.on.Load() || name == "" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Since(r.base)
		h.ServeHTTP(w, req)
		end := time.Since(r.base)
		r.mu.Lock()
		r.spans = append(r.spans, span{Name: name, StartNS: int64(start), EndNS: int64(end),
			Parent: -1, Deploy: req.URL.Query().Get("version")})
		r.mu.Unlock()
	})
}

// link assigns each node-side span to the /deploy span whose interval
// contains it. The deployer issues one /deploy at a time, so
// containment is unambiguous; the health probe, which carries no
// version, inherits its deploy ID from that parent.
func (r *spanRecorder) link() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	for i := range spans {
		if spans[i].Name == "fleet.deploy" {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if spans[j].Name == "fleet.deploy" && spans[j].StartNS <= spans[i].StartNS && spans[i].EndNS <= spans[j].EndNS {
				spans[i].Parent = j
				spans[i].Deploy = spans[j].Deploy
				break
			}
		}
	}
	return spans
}

// spanStats summarizes linked spans: the median duration per name in
// ms, and the controller's self time per deploy — the /deploy span
// minus the part of it its node-side children cover.
func spanStats(spans []span) (durMS map[string]float64, selfMS float64) {
	byName := map[string][]float64{}
	children := map[int][][2]int64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.EndNS-s.StartNS)/1e6)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	durMS = map[string]float64{}
	for name, ds := range byName {
		durMS[name] = median(ds)
	}
	var self []float64
	for i, s := range spans {
		if s.Name != "fleet.deploy" {
			continue
		}
		self = append(self, float64(s.EndNS-s.StartNS-covered(children[i]))/1e6)
	}
	return durMS, median(self)
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	start := int64(-1)
	for _, x := range iv {
		switch {
		case start < 0:
			start, end = x[0], x[1]
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if start >= 0 {
		total += end - start
	}
	return total
}

// writeSpans stores the run's spans as JSON under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
