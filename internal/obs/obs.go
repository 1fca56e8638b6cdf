// Package obs is the repository's zero-dependency observability layer:
// hierarchical spans over the CAD flow (map, place, route, bitgen, partial
// generation, board download), an always-on registry of atomic counters,
// gauges and histograms, a plain JSON snapshot of that registry, and a span
// exporter in the Chrome trace-event format (chrome://tracing / Perfetto).
//
// The paper's quantitative claims are all about where time and bytes go —
// CAD runs saved (C1), partial-bitstream bytes proportional to the region
// fraction (C2), constrained runs cheaper than full ones (C3) — so every
// layer of the reproduction reports into this package.
//
// Design rules:
//
//   - Spans are carried by context. With no Collector attached to the
//     context, Start returns a nil *Span and every Span method is a no-op:
//     instrumentation costs nothing (zero allocations) when disabled.
//   - Metrics are package-global and always on; they are plain atomics, so
//     the hot paths pay a few nanoseconds, never a lock.
//   - Nothing here may influence tool output. Spans carry wall-clock, but
//     tables and bitstreams stay byte-identical with tracing on or off, for
//     any worker count. The collector is race-clean under the worker pool.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	collectorKey ctxKey = iota
	spanKey
	laneKey
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is one completed span, as delivered to sinks and exporters.
// Start is an offset from the collector's epoch, so records from one
// collector share a timeline. Err carries the span's error status (set by
// Fail/EndErr); error spans surface in Chrome-trace args and in the flight
// recorder's error ring.
type SpanRecord struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Lane   int64         `json:"lane"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Err    string        `json:"err,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent or not a
// string) — the accessor sinks use to pull e.g. the request_id off a record.
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			if s, ok := a.Value.(string); ok {
				return s
			}
		}
	}
	return ""
}

// Sink receives completed spans as they end. Implementations must be safe
// for concurrent use; the worker pool ends spans from many goroutines.
type Sink interface {
	Record(rec SpanRecord)
}

// Collector gathers spans for one tool run. It buffers records internally
// (for export) and optionally streams them to a pluggable Sink.
type Collector struct {
	now   func() time.Time
	epoch time.Time
	sink  Sink

	nextID   atomic.Int64
	nextLane atomic.Int64

	mu    sync.Mutex
	spans []SpanRecord
	lanes map[int64]string // lane id -> display name
}

// Option configures a Collector.
type Option func(*Collector)

// WithNow substitutes the collector's clock (tests use a fake stepping
// clock to make exports reproducible).
func WithNow(now func() time.Time) Option {
	return func(c *Collector) { c.now = now }
}

// WithSink streams every completed span to s in addition to buffering it.
func WithSink(s Sink) Option {
	return func(c *Collector) { c.sink = s }
}

// New returns an empty collector whose epoch is "now".
func New(opts ...Option) *Collector {
	c := &Collector{now: time.Now, lanes: map[int64]string{0: "main"}}
	for _, o := range opts {
		o(c)
	}
	c.epoch = c.now()
	return c
}

// Attach returns a context carrying the collector; spans started under it
// are recorded. The root lane (0) is named "main".
func (c *Collector) Attach(ctx context.Context) context.Context {
	return context.WithValue(ctx, collectorKey, c)
}

// FromContext returns the context's collector, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey).(*Collector)
	return c
}

// Active reports whether spans started under ctx will be recorded. Use it
// to skip work (e.g. formatting lane names) that only feeds tracing.
func Active(ctx context.Context) bool { return FromContext(ctx) != nil }

// Lane returns a context whose subsequent spans land on a fresh named lane
// (a Chrome-trace "thread"). The worker pool gives each worker its own lane
// so task scheduling is visible. With no collector, ctx is returned as is.
func Lane(ctx context.Context, name string) context.Context {
	c := FromContext(ctx)
	if c == nil {
		return ctx
	}
	id := c.nextLane.Add(1)
	c.mu.Lock()
	c.lanes[id] = name
	c.mu.Unlock()
	return context.WithValue(ctx, laneKey, id)
}

// Span is one in-flight span. A nil *Span is valid and inert: all methods
// are no-ops, which is what Start hands out when no collector is attached.
// A span is owned by the goroutine that started it; End must be called at
// most once.
type Span struct {
	c      *Collector
	id     int64
	parent int64
	lane   int64
	name   string
	start  time.Time
	attrs  []Attr
	errMsg string
	ended  atomic.Bool
}

// Start begins a span under the context's collector. The returned context
// carries the span, so nested Starts build a hierarchy; sibling stages
// should Start from their common parent context. With no collector attached
// the original context and a nil span are returned, at zero cost.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	c := FromContext(ctx)
	if c == nil {
		return ctx, nil
	}
	s := &Span{c: c, id: c.nextID.Add(1), name: name, start: c.now()}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.parent = parent.id
		s.lane = parent.lane
	}
	if lane, ok := ctx.Value(laneKey).(int64); ok {
		s.lane = lane
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SetInt annotates the span. No-op on a nil span.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetStr annotates the span. No-op on a nil span.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetBool annotates the span. No-op on a nil span.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// Fail records err as the span's error status; the span still needs End (or
// use EndErr). The last non-nil error wins. No-op on a nil span or nil err.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// EndErr completes the span, tagging it with err when non-nil: the record
// carries the error into sinks, Chrome-trace args and flight-recorder dumps.
// EndErr(nil) is exactly End. Tagging is trace-side only; pair it with
// CountError so failures also register when no collector is attached.
func (s *Span) EndErr(err error) {
	s.Fail(err)
	s.End()
}

// CountError counts one failure of the named stage in the Default
// registry's errors_total.<stage> counter. Like every registry metric it is
// always on — error rates are visible with or without tracing.
func CountError(stage string) {
	GetCounter("errors_total." + stage).Inc()
}

// End completes the span and delivers it to the collector (and its sink).
// No-op on a nil span; safe to call more than once (later calls are
// ignored).
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	end := s.c.now()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Lane:   s.lane,
		Name:   s.name,
		Start:  s.start.Sub(s.c.epoch),
		Dur:    end.Sub(s.start),
		Attrs:  s.attrs,
		Err:    s.errMsg,
	}
	s.c.mu.Lock()
	s.c.spans = append(s.c.spans, rec)
	s.c.mu.Unlock()
	if s.c.sink != nil {
		s.c.sink.Record(rec)
	}
}

// Spans returns a copy of the completed spans, in completion order.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}

// LaneNames returns a copy of the lane-id -> name table.
func (c *Collector) LaneNames() map[int64]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int64]string, len(c.lanes))
	for id, name := range c.lanes {
		out[id] = name
	}
	return out
}
