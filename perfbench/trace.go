package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// rootSpan names the span that covers one whole operation: a request from
// its due time to its checked response, or one training step of one rank
// including its data fetch.
const rootSpan = "op"

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Trace. Parent names the enclosing span of the same
// operation; a name used as a parent is unique within its operation, so
// self times can be computed from names alone. Weight counts how many
// operations a shared span (one micro-batch serving several requests)
// stands for; zero means one.
type span struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Weight int    `json:"weight,omitempty"`
}

func (s span) dur() time.Duration {
	w := s.Weight
	if w == 0 {
		w = 1
	}
	return time.Duration(s.End-s.Start) * time.Duration(w)
}

// recorder holds the spans of one traced window in memory; they are
// written out only when the run ends. A nil *recorder records nothing, so
// untraced windows pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span of operation trace from start to end.
func (r *recorder) add(trace int64, name, parent string, start, end time.Time, weight int) {
	if r == nil {
		return
	}
	s := span{Trace: trace, Name: name, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Weight: weight}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addDur records a span that ended now and lasted d, the form executor
// and serving hooks report.
func (r *recorder) addDur(trace int64, name, parent string, d time.Duration, weight int) {
	if r == nil {
		return
	}
	end := time.Now()
	r.add(trace, name, parent, end.Add(-d), end, weight)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTimes sums, per span name, the total time and the self time: a
// span's duration minus the durations of its children. Children of one
// parent are assumed not to overlap, which holds for every span the
// benchmark records (one rank's executor runs its nodes one at a time).
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.dur()
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent != "" {
			self[s.Parent] -= d
		}
	}
	return total, self
}

// residual is the share of root time that no layer below the root
// accounts for: 1 − Σ layer self time ÷ root time. A layer whose children
// add up to more than the layer itself (negative self time) counts as
// zero, so a negative residual means some time was counted twice.
func residual(total, self map[string]time.Duration) float64 {
	root := total[rootSpan]
	if root <= 0 {
		return 0
	}
	var layers time.Duration
	for name, d := range self {
		if name != rootSpan && d > 0 {
			layers += d
		}
	}
	return 1 - float64(layers)/float64(root)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
