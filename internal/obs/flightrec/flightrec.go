// Package flightrec is a bounded in-memory flight recorder: a ring buffer
// of the most recent spans and error events across all requests, always
// cheap enough to leave on in production. When something goes wrong in a
// live jpgd, /debug/flightrec dumps the recent history — as JSON for
// inspection or as a Chrome trace for a post-mortem timeline — without
// having had tracing-to-disk enabled in advance.
//
// A Recorder is an obs.Sink: attach it to per-request collectors
// (obs.WithSink) and every completed span lands in the ring. Spans whose
// record carries an error (Span.EndErr) are additionally copied into a
// separate error ring, so the latest failures stay visible even when
// healthy traffic has long since overwritten their surrounding spans.
package flightrec

import (
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultCapacity bounds the span ring when New is given n <= 0.
const DefaultCapacity = 1024

// errorRingFraction sizes the error ring relative to the span ring.
const errorRingFraction = 4

// RecordedSpan is one span as captured by the recorder: the record itself
// plus the wall-clock capture time and a process-wide sequence number.
// Spans from different collectors carry offsets from different epochs, so
// At — not SpanRecord.Start — orders a dump's timeline.
type RecordedSpan struct {
	Seq int64          `json:"seq"`
	At  time.Time      `json:"at"`
	Rec obs.SpanRecord `json:"rec"`
}

// ErrorEvent is one captured failure: an error-tagged span. Source is the
// span's name; RequestID is its request_id attr, which jpgd's request span
// carries.
type ErrorEvent struct {
	Seq       int64     `json:"seq"`
	At        time.Time `json:"at"`
	Source    string    `json:"source"`
	Err       string    `json:"err"`
	RequestID string    `json:"request_id,omitempty"`
}

// Recorder is the bounded ring buffer. Safe for concurrent use; Record is a
// mutex-guarded copy into a preallocated ring (no allocation per span
// beyond the record's own attrs).
type Recorder struct {
	mu       sync.Mutex
	spans    []RecordedSpan // ring, len == capacity
	next     int            // next write position
	total    int64          // spans ever recorded
	errs     []ErrorEvent   // ring
	errNext  int
	errTotal int64
	now      func() time.Time
}

// New returns a recorder keeping the last capacity spans (DefaultCapacity
// when capacity <= 0) and capacity/4 error events (minimum 16).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	errCap := capacity / errorRingFraction
	if errCap < 16 {
		errCap = 16
	}
	return &Recorder{
		spans: make([]RecordedSpan, capacity),
		errs:  make([]ErrorEvent, errCap),
		now:   time.Now,
	}
}

// Record implements obs.Sink: the span enters the ring, and error-tagged
// spans also enter the error ring.
func (r *Recorder) Record(rec obs.SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	at := r.now()
	r.spans[r.next] = RecordedSpan{Seq: r.total, At: at, Rec: rec}
	r.next = (r.next + 1) % len(r.spans)
	if rec.Err == "" {
		return
	}
	r.errTotal++
	r.errs[r.errNext] = ErrorEvent{
		Seq: r.errTotal, At: at, Source: rec.Name, Err: rec.Err, RequestID: rec.Attr("request_id"),
	}
	r.errNext = (r.errNext + 1) % len(r.errs)
}

// Dump is a point-in-time copy of the recorder: the retained spans and
// error events, oldest first, plus totals so a reader knows how much
// history fell off the ring.
type Dump struct {
	Capacity      int            `json:"capacity"`
	TotalSpans    int64          `json:"total_spans"`
	DroppedSpans  int64          `json:"dropped_spans"`
	TotalErrors   int64          `json:"total_errors"`
	DroppedErrors int64          `json:"dropped_errors"`
	Spans         []RecordedSpan `json:"spans"`
	Errors        []ErrorEvent   `json:"errors"`
}

// Dump snapshots the recorder.
func (r *Recorder) Dump() Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := Dump{
		Capacity:    len(r.spans),
		TotalSpans:  r.total,
		TotalErrors: r.errTotal,
		Spans:       ringCopy(r.spans, r.next, r.total),
		Errors:      ringCopyErr(r.errs, r.errNext, r.errTotal),
	}
	d.DroppedSpans = d.TotalSpans - int64(len(d.Spans))
	d.DroppedErrors = d.TotalErrors - int64(len(d.Errors))
	return d
}

// ringCopy returns the ring's live entries oldest-first.
func ringCopy(ring []RecordedSpan, next int, total int64) []RecordedSpan {
	n := int64(len(ring))
	if total < n {
		out := make([]RecordedSpan, total)
		copy(out, ring[:total])
		return out
	}
	out := make([]RecordedSpan, 0, n)
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}

func ringCopyErr(ring []ErrorEvent, next int, total int64) []ErrorEvent {
	n := int64(len(ring))
	if total < n {
		out := make([]ErrorEvent, total)
		copy(out, ring[:total])
		return out
	}
	out := make([]ErrorEvent, 0, n)
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}

// WriteChromeTrace renders the retained spans as a Chrome trace for
// post-mortems. Spans from different requests come from different
// collectors, so each span is re-anchored on the shared wall clock: its
// trace start is (capture time - duration) relative to the oldest retained
// capture. Lane IDs are collector-local and carry no names here; the
// per-request hierarchy (parent links, names, attrs, errors) is intact.
func (r *Recorder) WriteChromeTrace(w io.Writer, processName string) error {
	d := r.Dump()
	spans := make([]obs.SpanRecord, len(d.Spans))
	var epoch time.Time
	for i, s := range d.Spans {
		start := s.At.Add(-s.Rec.Dur)
		if i == 0 || start.Before(epoch) {
			epoch = start
		}
	}
	for i, s := range d.Spans {
		rec := s.Rec
		rec.Start = s.At.Add(-rec.Dur).Sub(epoch)
		spans[i] = rec
	}
	buf, err := obs.ChromeTraceJSON(processName, spans, nil)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
