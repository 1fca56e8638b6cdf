// Package log is the operational logging layer of the reproduction: leveled
// structured JSON logging on log/slog, with per-request correlation IDs
// minted at the service and CLI entry points and threaded through context.
//
// A layer's timed work is recorded once, as an obs span; SpanSink turns
// each completed span into one log line, so a jpgd request's lines — flow
// stages, partial generation, downloads, the request itself — all carry the
// same request_id and one grep follows the request across every layer it
// touches. The package helpers (Info, Warn) are for the few events that
// have no duration: download retries and aborts, injected faults, and the
// daemon's lifecycle.
//
// Design rules mirror internal/obs:
//
//   - The logger is carried by context. With no logger attached, Info and
//     Warn write nothing.
//   - Logging may never influence tool output: artifacts stay byte-identical
//     with logging on or off, at any level, for any worker count.
//   - Events are structured key/value pairs, not formatted prose: the
//     message names the event or span ("route", "jpgd.request",
//     "download.retry") and the attributes carry the data.
package log

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FieldRequestID is the correlation ID attribute every event carries once
// WithRequestID has run for the request's context.
const FieldRequestID = "request_id"

type ctxKey int

const (
	loggerKey ctxKey = iota
	requestIDKey
)

// New returns a leveled JSON logger writing to w — the constructor jpgd and
// the CLIs use. Each line is one event: time, level, msg, then attributes.
func New(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLevel reads a level name ("debug", "info", "warn", "error",
// case-insensitive, slog offset syntax allowed, e.g. "warn-2").
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("log: bad level %q: %w", s, err)
	}
	return l, nil
}

// reqCounter disambiguates IDs minted in the same process when the random
// source fails (it never should; the counter also makes IDs strictly unique
// within a process regardless).
var reqCounter atomic.Int64

// NewRequestID mints a correlation ID: 8 random bytes as hex. IDs are
// opaque; only equality matters.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d-%d", time.Now().UnixNano(), reqCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Attach returns a context carrying the logger; events emitted under it by
// the instrumented packages are written. Attach(ctx, nil) returns ctx.
func Attach(ctx context.Context, l *slog.Logger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey, l)
}

// From returns the context's logger, or nil. Callers must nil-check (or use
// the package helpers, which do).
func From(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(loggerKey).(*slog.Logger)
	return l
}

// WithRequestID stamps the context with a correlation ID: RequestIDFrom
// recovers it, and the attached logger (if any) is rebound so every
// subsequent event carries request_id=id. Entry points mint the ID
// (NewRequestID) or adopt a caller-supplied one, then thread the returned
// context through the whole request.
func WithRequestID(ctx context.Context, id string) context.Context {
	ctx = context.WithValue(ctx, requestIDKey, id)
	if l := From(ctx); l != nil {
		ctx = Attach(ctx, l.With(FieldRequestID, id))
	}
	return ctx
}

// RequestIDFrom returns the context's correlation ID ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

func emit(ctx context.Context, level slog.Level, msg string, args ...any) {
	if l := From(ctx); l != nil && l.Enabled(ctx, level) {
		l.Log(ctx, level, msg, args...)
	}
}

// Info emits an info event under the context's logger (no-op without one).
func Info(ctx context.Context, msg string, args ...any) {
	emit(ctx, slog.LevelInfo, msg, args...)
}

// Warn emits a warning under the context's logger (no-op without one).
func Warn(ctx context.Context, msg string, args ...any) {
	emit(ctx, slog.LevelWarn, msg, args...)
}

// spanSink bridges spans to the log: every completed span becomes one
// structured line. jpgd attaches one per request, built over the
// request-bound logger, so span lines share the request's correlation ID.
type spanSink struct {
	l *slog.Logger
}

// SpanSink returns an obs.Sink logging each completed span through l as one
// line named after the span: info for clean spans, warn for error-tagged
// ones. Attach it with obs.WithSink(log.SpanSink(requestLogger)).
func SpanSink(l *slog.Logger) obs.Sink {
	return spanSink{l: l}
}

// Record implements obs.Sink.
func (s spanSink) Record(rec obs.SpanRecord) {
	level := slog.LevelInfo
	if rec.Err != "" {
		level = slog.LevelWarn
	}
	if !s.l.Enabled(context.Background(), level) {
		return
	}
	args := make([]any, 0, 6+2*len(rec.Attrs))
	args = append(args, "dur_us", rec.Dur.Microseconds(), "lane", rec.Lane)
	if rec.Err != "" {
		args = append(args, "error", rec.Err)
	}
	if len(rec.Attrs) > 0 {
		kvs := make([]any, 0, 2*len(rec.Attrs))
		for _, a := range rec.Attrs {
			kvs = append(kvs, slog.Any(a.Key, a.Value))
		}
		args = append(args, slog.Group("attrs", kvs...))
	}
	s.l.Log(context.Background(), level, rec.Name, args...)
}
