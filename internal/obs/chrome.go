package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// (https://chromium.googlesource.com/catapult trace-event format). Spans
// become "X" (complete) events; process and lane names become "M"
// (metadata) events. Timestamps are microseconds from the collector epoch.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   *float64       `json:"ts,omitempty"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) *float64 {
	v := float64(d.Nanoseconds()) / 1e3
	return &v
}

// ChromeTrace renders the collected spans in the Chrome trace-event JSON
// format: open the file in chrome://tracing or https://ui.perfetto.dev to
// see per-stage spans nested on per-worker lanes. Events are ordered by
// (lane, start, id), so the output is reproducible for a given span set.
func (c *Collector) ChromeTrace(processName string) ([]byte, error) {
	return ChromeTraceJSON(processName, c.Spans(), c.LaneNames())
}

// ChromeTraceJSON renders an arbitrary span set (e.g. a flight-recorder
// dump) as Chrome trace-event JSON. lanes may be nil; named lanes emit
// thread_name metadata. Spans are reordered in place by (lane, start, id).
func ChromeTraceJSON(processName string, spans []SpanRecord, lanes map[int64]string) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans)+len(lanes)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": processName},
	})
	laneIDs := make([]int64, 0, len(lanes))
	for id := range lanes {
		laneIDs = append(laneIDs, id)
	}
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })
	for _, id := range laneIDs {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": lanes[id]},
		})
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: micros(s.Start), Dur: micros(s.Dur),
		}
		if len(s.Attrs) > 0 || s.Err != "" {
			ev.Args = make(map[string]any, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
			if s.Err != "" {
				ev.Args["error"] = s.Err
			}
		}
		events = append(events, ev)
	}
	return json.MarshalIndent(events, "", " ")
}

// WriteChromeTrace writes ChromeTrace output to w.
func (c *Collector) WriteChromeTrace(w io.Writer, processName string) error {
	buf, err := c.ChromeTrace(processName)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// StageSummary aggregates completed spans by name — count and total
// duration, sorted by descending total — the per-stage table `jpg -v` and
// `jpgbench -metrics` print. Span hierarchy is flattened: a parent's time
// includes its children's.
func (c *Collector) StageSummary() string {
	type agg struct {
		name  string
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range c.Spans() {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{name: s.Name}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.Dur
	}
	aggs := make([]*agg, 0, len(byName))
	for _, a := range byName {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].total != aggs[j].total {
			return aggs[i].total > aggs[j].total
		}
		return aggs[i].name < aggs[j].name
	})
	var b strings.Builder
	for _, a := range aggs {
		fmt.Fprintf(&b, "%-24s x%-5d total %v\n", a.name, a.n, a.total.Round(time.Microsecond))
	}
	return b.String()
}
