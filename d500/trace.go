package d500

import (
	"fmt"
	"net/http"
	"time"

	"deep500/internal/obs/trace"
)

// TraceConfig configures a Tracer: the tail-sampling flight recorder
// behind -trace on d500serve, d500train and d500dist. Zero fields take
// the documented defaults (DefaultTraceConfig).
type TraceConfig struct {
	// SlowThreshold is the tail-sampling latency bound: a request/run
	// whose root span reaches it is always retained, however the head
	// sampler rolled. Default 250ms (the -trace-slow flag).
	SlowThreshold time.Duration
	// SampleEvery head-samples one trace in N regardless of latency; 1
	// retains everything. Default 64.
	SampleEvery int
	// Capacity is the flight recorder's trace capacity, oldest evicted
	// first. Default 256.
	Capacity int
	// MaxSpansPerTrace bounds one trace's span buffer; overflow spans are
	// dropped and counted. Default 512.
	MaxSpansPerTrace int
	// Process names this process on every span, grouping the Perfetto
	// view ("serve", "launcher", "rank-1", ...).
	Process string
	// Seed fixes the trace/span ID sequence; 0 derives a per-process seed
	// so concurrent processes do not collide.
	Seed uint64
}

// DefaultTraceConfig returns the resolved tracer defaults — the same
// constants a zero TraceConfig becomes, rendered by d500info -obs.
func DefaultTraceConfig() TraceConfig {
	o := trace.DefaultOptions()
	return TraceConfig{
		SlowThreshold:    o.SlowThreshold,
		SampleEvery:      o.SampleEvery,
		Capacity:         o.Capacity,
		MaxSpansPerTrace: o.MaxSpansPerTrace,
	}
}

// internal lowers the public config onto the tracer's option struct.
func (c TraceConfig) internal() trace.Options {
	return trace.Options{
		SlowThreshold:    c.SlowThreshold,
		SampleEvery:      c.SampleEvery,
		Capacity:         c.Capacity,
		MaxSpansPerTrace: c.MaxSpansPerTrace,
		Process:          c.Process,
		Seed:             c.Seed,
	}
}

// Tracer is the public handle on the span tracer and its flight
// recorder. Build one with NewTracer and share it across a Session, the
// Registry tenants and a jobs manager via WithTracer — their spans then land in
// one recorder, and Handler serves them. A nil *Tracer is valid
// everywhere and means tracing is off.
type Tracer struct {
	t *trace.Tracer
}

// validate rejects the settings no tracer can run with; NewTracer and
// WithTrace share it.
func (c TraceConfig) validate() error {
	if c.SlowThreshold < 0 {
		return fmt.Errorf("d500: TraceConfig.SlowThreshold must be non-negative, got %v", c.SlowThreshold)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("d500: TraceConfig.SampleEvery must be non-negative, got %d", c.SampleEvery)
	}
	return nil
}

// NewTracer builds a tracer with a bounded in-memory flight recorder.
func NewTracer(cfg TraceConfig) (*Tracer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tracer{t: trace.New(cfg.internal())}, nil
}

// Handler serves the flight recorder: GET /debug/traces (JSON, with
// ?trace=<16hex> selecting one trace) and GET /debug/traces/perfetto
// (Chrome trace-event JSON loadable in Perfetto / chrome://tracing).
// cmd/d500serve and the d500dist job manager mount it under -trace.
func (t *Tracer) Handler() http.Handler {
	if t == nil {
		return http.NotFoundHandler()
	}
	return t.t.Recorder().Handler()
}

// Counters reports the tracer's lifetime totals: spans recorded, spans
// dropped (late arrivals and per-trace overflow) and traces retained by
// sampling — the d500_trace_* series of Metrics.ObserveTracer.
func (t *Tracer) Counters() (spans, dropped, sampled uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.t.Counters()
}

// raw exposes the internal tracer to the package (nil-safe).
func (t *Tracer) raw() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.t
}
