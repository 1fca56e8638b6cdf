package log

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// decodeLines parses a JSON-lines log buffer.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestRequestIDThreadsThroughContext(t *testing.T) {
	var buf bytes.Buffer
	ctx := Attach(context.Background(), New(&buf, slog.LevelDebug))
	ctx = WithRequestID(ctx, "req-42")

	Info(ctx, "jpgd.listening", "addr", ":8080")
	Warn(ctx, "download.retry", "attempt", 1)

	if got := RequestIDFrom(ctx); got != "req-42" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, m := range lines {
		if m[FieldRequestID] != "req-42" {
			t.Fatalf("line %d lacks request_id: %v", i, m)
		}
	}
	if lines[0]["msg"] != "jpgd.listening" || lines[0]["addr"] != ":8080" {
		t.Fatalf("event fields wrong: %v", lines[0])
	}
	if lines[1]["level"] != "WARN" {
		t.Fatalf("warn level wrong: %v", lines[1])
	}
}

func TestNoLoggerIsNoOp(t *testing.T) {
	ctx := context.Background()
	// Must not panic, must not allocate a logger.
	Info(ctx, "b", "k", "v")
	Warn(ctx, "c")
	if From(ctx) != nil {
		t.Fatal("From returned a logger for a bare context")
	}
	if RequestIDFrom(nil) != "" || From(nil) != nil {
		t.Fatal("nil context not handled")
	}
	if got := Attach(ctx, nil); got != ctx {
		t.Fatal("Attach(nil) must return ctx unchanged")
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	ctx := Attach(context.Background(), New(&buf, slog.LevelWarn))
	Info(ctx, "hidden")
	Warn(ctx, "shown")
	lines := decodeLines(t, &buf)
	if len(lines) != 1 || lines[0]["msg"] != "shown" {
		t.Fatalf("level filter wrong: %v", lines)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("shouting"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two IDs collided: %q", a)
	}
	if len(a) != 16 {
		t.Fatalf("ID %q has length %d, want 16 hex chars", a, len(a))
	}
}

func TestSpanSink(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo).With(FieldRequestID, "req-7")
	sink := SpanSink(l)
	sink.Record(obs.SpanRecord{Name: "place", Dur: 2 * time.Millisecond,
		Attrs: []obs.Attr{{Key: "cache", Value: "hit"}}})
	sink.Record(obs.SpanRecord{Name: "route", Err: "boom"})

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["level"] != "INFO" || lines[0]["msg"] != "place" || lines[0][FieldRequestID] != "req-7" {
		t.Fatalf("clean span line: %v", lines[0])
	}
	attrs, _ := lines[0]["attrs"].(map[string]any)
	if attrs["cache"] != "hit" {
		t.Fatalf("span attrs missing: %v", lines[0])
	}
	if lines[1]["level"] != "WARN" || lines[1]["msg"] != "route" || lines[1]["error"] != "boom" {
		t.Fatalf("error span line: %v", lines[1])
	}
}

func TestSpanSinkRespectsLevel(t *testing.T) {
	var buf bytes.Buffer
	sink := SpanSink(New(&buf, slog.LevelWarn))
	sink.Record(obs.SpanRecord{Name: "quiet"}) // info-level: filtered
	if buf.Len() != 0 {
		t.Fatalf("clean span logged under warn level: %s", buf.String())
	}
	sink.Record(obs.SpanRecord{Name: "loud", Err: "x"}) // warn-level: written
	if buf.Len() == 0 {
		t.Fatal("error span not logged under warn level")
	}
}
