package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// fixedClock steps one second per call, so capture times are deterministic.
func fixedClock() func() time.Time {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(4)
	r.now = fixedClock()
	for i := 0; i < 6; i++ {
		r.Record(obs.SpanRecord{Name: fmt.Sprintf("s%d", i)})
	}
	d := r.Dump()
	if d.Capacity != 4 || d.TotalSpans != 6 || d.DroppedSpans != 2 {
		t.Fatalf("dump totals: %+v", d)
	}
	if len(d.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(d.Spans))
	}
	// Oldest-first: spans 2..5 survive with sequence numbers 3..6.
	for i, s := range d.Spans {
		if want := fmt.Sprintf("s%d", i+2); s.Rec.Name != want {
			t.Fatalf("span %d = %q, want %q", i, s.Rec.Name, want)
		}
		if s.Seq != int64(i+3) {
			t.Fatalf("span %d seq = %d, want %d", i, s.Seq, i+3)
		}
	}
}

func TestPartialRing(t *testing.T) {
	r := New(8)
	r.now = fixedClock()
	r.Record(obs.SpanRecord{Name: "only"})
	d := r.Dump()
	if len(d.Spans) != 1 || d.DroppedSpans != 0 {
		t.Fatalf("partial ring dump: %+v", d)
	}
}

func TestErrorRingCapturesTaggedSpans(t *testing.T) {
	r := New(64)
	r.now = fixedClock()
	r.Record(obs.SpanRecord{Name: "fine"})
	r.Record(obs.SpanRecord{
		Name: "jpgd.request", Err: "bitstream is required",
		Attrs: []obs.Attr{{Key: "request_id", Value: "req-1"}},
	})
	r.Record(obs.SpanRecord{Name: "core.download", Err: "context canceled"})

	d := r.Dump()
	if d.TotalErrors != 2 || len(d.Errors) != 2 {
		t.Fatalf("error totals: %+v", d)
	}
	if e := d.Errors[0]; e.Source != "jpgd.request" || e.Err != "bitstream is required" || e.RequestID != "req-1" {
		t.Fatalf("request span error event: %+v", e)
	}
	if e := d.Errors[1]; e.Source != "core.download" || e.RequestID != "" {
		t.Fatalf("inner span error event: %+v", e)
	}
	if e := d.Errors[0]; !e.At.Equal(d.Spans[1].At) {
		t.Fatalf("error event at %v, its span at %v", e.At, d.Spans[1].At)
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := New(0)
	if d := r.Dump(); d.Capacity != DefaultCapacity {
		t.Fatalf("capacity %d, want %d", d.Capacity, DefaultCapacity)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New(16)
	r.now = fixedClock()
	r.Record(obs.SpanRecord{Name: "place", Dur: 100 * time.Millisecond})
	r.Record(obs.SpanRecord{Name: "route", Dur: 50 * time.Millisecond, Err: "boom"})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, "jpgd"); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	var names []string
	for _, ev := range events {
		if n, _ := ev["name"].(string); n != "" {
			names = append(names, n)
		}
	}
	want := map[string]bool{"place": false, "route": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("trace lacks span %q (events: %v)", n, names)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"error": "boom"`)) {
		t.Fatalf("trace lacks error arg:\n%s", buf.String())
	}
}

func TestDumpIsJSONEncodable(t *testing.T) {
	r := New(4)
	r.now = fixedClock()
	r.Record(obs.SpanRecord{Name: "a", Err: "x"})
	if _, err := json.Marshal(r.Dump()); err != nil {
		t.Fatal(err)
	}
}
