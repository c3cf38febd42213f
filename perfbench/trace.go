package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 for a root span
	// Request ties the spans of one daemon request together (0 elsewhere).
	Request int     `json:"request,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per span. It is safe
// for the daemon-mix clients to share.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	requests int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request returns a fresh request identifier (0 on a nil tracer).
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	return t.requests
}

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID:      len(t.spans) + 1,
		Name:    name,
		Parent:  parent,
		Request: request,
		StartMS: t.ms(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMS = t.ms()
}

func (t *tracer) ms() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// selfMS returns each span name's total self time: its duration minus the
// part of its interval that its child spans cover. Children of one parent
// may overlap (the daemon-mix clients run concurrently), so the covered
// part is the union of their intervals.
func (t *tracer) selfMS() map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartMS, s.EndMS})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.EndMS - s.StartMS - covered(children[s.ID])
	}
	return self
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, math.Inf(-1)
	for _, x := range iv {
		lo := math.Max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = math.Max(end, x[1])
	}
	return total
}

// write stores the spans, the per-span-name self times and the run's
// metrics as one JSON file in the benchmark's build directory.
func (t *tracer) write(r *run) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	out, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]metric  `json:"metrics"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{r.workload, r.seed, r.metrics, t.selfMS(), t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, out, 0o644)
}
