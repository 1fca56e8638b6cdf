package jpgd_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/jpgd"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	jpglog "repro/internal/obs/log"
)

// fixture is the shared Phase 1 + Phase 2 build the HTTP tests replay:
// a two-module XCV50 base design and one LFSR variant for u1/.
type fixture struct {
	base    *flow.BaseBuild
	variant *flow.Artifacts
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func buildFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		p := device.MustByName("XCV50")
		base, err := flow.BuildBase(context.Background(), p, []designs.Instance{
			{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
			{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 3}},
		}, flow.Options{Seed: 1})
		if err != nil {
			fixErr = err
			return
		}
		variant, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6}, flow.Options{Seed: 2})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{base: base, variant: variant}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func generateBody(t *testing.T, f fixture, download *jpgd.DownloadRequest) []byte {
	t.Helper()
	body, err := json.Marshal(jpgd.GenerateRequest{
		Base:     base64.StdEncoding.EncodeToString(f.base.Bitstream),
		XDL:      f.variant.XDL,
		UCF:      f.variant.UCF,
		Name:     "u1_lfsr",
		Download: download,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// syncBuffer is a concurrency-safe log sink for test servers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newTestServer(t *testing.T, cfg jpgd.Config) (*jpgd.Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := jpgd.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestServer(t, jpgd.Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz status %d", resp.StatusCode)
	}

	srv.SetReady(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, body %q", resp.StatusCode, body)
	}
}

func TestMetricsEndpointReflectsRequests(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(generateBody(t, f, nil)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("generate status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	out := string(body)
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE jpg_jpgd_requests counter",
		"jpg_jpgd_requests 1",
		"jpg_jpgd_generates 1",
		"# TYPE jpg_jpgd_request_ns histogram",
		`jpg_jpgd_request_ns_bucket{le="+Inf"} 1`,
		"# TYPE jpg_jpgd_inflight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out)
		}
	}
}

func TestGenerateMatchesDirectToolPath(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	// Direct path: the CLI's sequence against the same inputs.
	proj, err := core.NewProject(f.base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", f.variant.XDL, f.variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	want, err := proj.GeneratePartial(m, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/generate", bytes.NewReader(generateBody(t, f, nil)))
	req.Header.Set("X-Request-ID", "test-gen-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Correlation travels in the header only; the body is a pure function
	// of the request so coalesced/cached deliveries can share it.
	if got := resp.Header.Get("X-Request-ID"); got != "test-gen-1" {
		t.Fatalf("X-Request-ID echo = %q", got)
	}
	var out jpgd.GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bitstream, want.Bitstream) {
		t.Fatalf("HTTP partial differs from direct path: %d vs %d bytes", len(out.Bitstream), len(want.Bitstream))
	}
	if out.Frames != len(want.FARs) || out.FramesChanged != want.FramesChanged {
		t.Fatalf("frame counts differ: %+v vs %d/%d", out, len(want.FARs), want.FramesChanged)
	}
	if out.Part != "XCV50" || out.Region != want.Region.String() {
		t.Fatalf("metadata wrong: %+v", out)
	}
}

func TestGenerateWithDownloadAndFaults(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	// First download attempt is faulted; the reliability layer retries.
	dl := &jpgd.DownloadRequest{Retries: 3, Faults: "first=1,mode=error,seed=7"}
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(generateBody(t, f, dl)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out jpgd.GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Download == nil {
		t.Fatal("download result missing")
	}
	if out.Download.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one injected fault, one retry)", out.Download.Attempts)
	}
	if out.Download.FramesWritten != out.Frames {
		t.Fatalf("frames written %d != carried %d", out.Download.FramesWritten, out.Frames)
	}
}

// TestGenerateDownloadLatencyHonoursTimeout checks that injected link
// latency waits on the download deadline: a request with timeout_ms 50 over
// a one-hour latency answers with an error status within seconds instead
// of holding its admission slot for the hour.
func TestGenerateDownloadLatencyHonoursTimeout(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	dl := &jpgd.DownloadRequest{TimeoutMS: 50, Faults: "latency=1h"}
	client := &http.Client{Timeout: 10 * time.Second}
	t0 := time.Now()
	resp, err := client.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(generateBody(t, f, dl)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("answered after %v, want within a few seconds", el)
	}
	if resp.StatusCode < 400 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want an error status: %s", resp.StatusCode, body)
	}
}

func TestConcurrentGenerates(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})
	body := generateBody(t, f, nil)

	const n = 8
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out jpgd.GenerateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			results[i] = out.Bitstream
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("request %d produced a different bitstream", i)
		}
	}
	if len(results[0]) == 0 {
		t.Fatal("empty bitstreams")
	}
}

// logLines parses a JSON-lines log buffer.
func logLines(t *testing.T, logs *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
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

// TestLogCorrelation is the acceptance check: one request's structured log
// lines — one per span it completed, from the flow stages and their cache
// lookups through partial generation and the board download to the
// jpgd.request line — all carry the same correlation ID.
func TestLogCorrelation(t *testing.T) {
	f := buildFixture(t)
	var logs syncBuffer
	srv, ts := newTestServer(t, jpgd.Config{
		Logger: jpglog.New(&logs, slog.LevelInfo),
		Cache:  cache.New(cache.Options{}),
	})

	// A build request drives the CAD flow (map/place/route/bitgen stages +
	// stage-cache lookups) under one ID.
	buildBody, _ := json.Marshal(jpgd.BuildRequest{
		Part:      "XCV50",
		Instances: "u1/=counter:bits=6;u2/=sbox:n=8,seed=3",
		Seed:      1,
		Variant:   &jpgd.VariantRequest{Prefix: "u1/", Gen: "lfsr:bits=6", Seed: 2},
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/build", bytes.NewReader(buildBody))
	req.Header.Set("X-Request-ID", "corr-build")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("build status %d", resp.StatusCode)
	}

	// A generate-with-download request drives partial generation and the
	// board download under another ID.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/generate",
		bytes.NewReader(generateBody(t, f, &jpgd.DownloadRequest{Retries: 2})))
	req.Header.Set("X-Request-ID", "corr-gen")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("generate status %d", resp.StatusCode)
	}
	// The request span ends after the response is flushed; wait for both
	// handlers to return before reading the logs.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	const stageLine = "a stage line with its cache attr"
	stages := map[string]bool{"map": true, "place": true, "route": true, "bitgen": true, "emit": true}
	byID := map[string]map[string]bool{} // request_id -> set of msg
	for _, m := range logLines(t, &logs) {
		id, _ := m["request_id"].(string)
		msg, _ := m["msg"].(string)
		if id == "" {
			t.Fatalf("log line without request_id: %v", m)
		}
		if byID[id] == nil {
			byID[id] = map[string]bool{}
		}
		byID[id][msg] = true
		if attrs, _ := m["attrs"].(map[string]any); stages[msg] && attrs["cache"] != nil {
			byID[id][stageLine] = true
		}
	}
	if len(byID) != 2 {
		t.Fatalf("expected exactly 2 correlation IDs, got %v", byID)
	}
	for _, msg := range []string{stageLine, "core.partial", "jpgd.request"} {
		if !byID["corr-build"][msg] {
			t.Fatalf("build request logs lack %q: %v", msg, byID["corr-build"])
		}
	}
	for _, msg := range []string{"core.partial", "core.download", "xhwif.download", "jpgd.request"} {
		if !byID["corr-gen"][msg] {
			t.Fatalf("generate request logs lack %q: %v", msg, byID["corr-gen"])
		}
	}
}

// TestRequestLogLine pins the log contract of a request that touches no
// inner layer: under info level a /v1/verify writes exactly one line, its
// jpgd.request span, which says how it was served; a failed request's line
// is a warning carrying the endpoint's error, and the failure is one
// jpgd-level event in the flight recorder's error ring.
func TestRequestLogLine(t *testing.T) {
	f := buildFixture(t)
	var logs syncBuffer
	rec := flightrec.New(64)
	srv, ts := newTestServer(t, jpgd.Config{Logger: jpglog.New(&logs, slog.LevelInfo), Recorder: rec})
	body, err := json.Marshal(jpgd.VerifyRequest{Bitstream: base64.StdEncoding.EncodeToString(f.base.Bitstream)})
	if err != nil {
		t.Fatal(err)
	}

	// requestLine sends one verify body and returns the one line it logged.
	requestLine := func(body []byte, wantStatus int) map[string]any {
		t.Helper()
		before := len(logLines(t, &logs))
		r := post(ts.URL, "/v1/verify", body, map[string]string{"X-Request-ID": "line-1"})
		if r.err != nil || r.status != wantStatus {
			t.Fatalf("verify: %v status %d, want %d: %s", r.err, r.status, wantStatus, r.body)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		lines := logLines(t, &logs)[before:]
		if len(lines) != 1 {
			t.Fatalf("one verify request wrote %d log lines, want 1: %v", len(lines), lines)
		}
		m := lines[0]
		if m["msg"] != "jpgd.request" || m["request_id"] != "line-1" {
			t.Fatalf("log line is not the request's jpgd.request line: %v", m)
		}
		return m
	}
	for _, want := range []string{"miss", "hit"} {
		m := requestLine(body, http.StatusOK)
		attrs, _ := m["attrs"].(map[string]any)
		if m["level"] != "INFO" || attrs["status"] != float64(200) || attrs["cache"] != want ||
			attrs["route"] != "verify" || attrs["method"] != "POST" || attrs["path"] != "/v1/verify" {
			t.Fatalf("cache %s: request line %v", want, m)
		}
	}

	m := requestLine([]byte(`{}`), http.StatusBadRequest)
	attrs, _ := m["attrs"].(map[string]any)
	if m["level"] != "WARN" || m["error"] != "bitstream is required" || attrs["status"] != float64(400) {
		t.Fatalf("failed request line %v", m)
	}
	var events []flightrec.ErrorEvent
	for _, e := range rec.Dump().Errors {
		if strings.HasPrefix(e.Source, "jpgd.") {
			events = append(events, e)
		}
	}
	if len(events) != 1 || events[0].Source != "jpgd.request" ||
		events[0].Err != "bitstream is required" || events[0].RequestID != "line-1" {
		t.Fatalf("jpgd-level error events %+v, want one jpgd.request event", events)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	f := buildFixture(t)
	rec := flightrec.New(256)
	_, ts := newTestServer(t, jpgd.Config{Recorder: rec})

	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(generateBody(t, f, nil)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dresp, err := http.Get(ts.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	var dump flightrec.Dump
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dump.TotalSpans == 0 {
		t.Fatal("flight recorder saw no spans")
	}
	var names []string
	for _, s := range dump.Spans {
		names = append(names, s.Rec.Name)
	}
	found := false
	for _, n := range names {
		if n == "jpgd.request" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no jpgd.request span in dump: %v", names)
	}

	cresp, err := http.Get(ts.URL + "/debug/flightrec?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	var events []map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(trace), &events); err != nil {
		t.Fatalf("chrome dump not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome dump empty")
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	rec := flightrec.New(64)
	_, ts := newTestServer(t, jpgd.Config{Recorder: rec})

	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"bad base64", `{"base":"!!!","xdl":"x","ucf":"u"}`, http.StatusBadRequest},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: error envelope not JSON: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if e.Error == "" || resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("%s: bad error envelope %+v (id header %q)", tc.name, e, resp.Header.Get("X-Request-ID"))
		}
		resp.Body.Close()
	}

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	if rec.Dump().TotalErrors == 0 {
		t.Fatal("request failures not recorded in the flight recorder")
	}
}

func TestBuildEndpoint(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	body, _ := json.Marshal(jpgd.BuildRequest{
		Part:      "XCV50",
		Instances: "u1/=counter:bits=6;u2/=sbox:n=8,seed=3",
		Seed:      1,
		Variant:   &jpgd.VariantRequest{Prefix: "u1/", Gen: "lfsr:bits=6", Seed: 2},
	})
	resp, err := http.Post(ts.URL+"/v1/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out jpgd.BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Part != "XCV50" || out.BaseBytes == 0 || len(out.Regions) != 2 {
		t.Fatalf("build response: %+v", out)
	}
	if out.Variant == nil || out.Variant.Bytes == 0 {
		t.Fatalf("variant result missing: %+v", out)
	}
	// The server-side build is the same deterministic flow the fixture ran:
	// the variant's partial must match the partial generated locally from
	// the fixture's artifacts.
	proj, err := core.NewProject(f.base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", f.variant.XDL, f.variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	want, err := proj.GeneratePartial(m, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Variant.Bitstream, want.Bitstream) {
		t.Fatalf("server-built partial differs from local build: %d vs %d bytes",
			len(out.Variant.Bitstream), len(want.Bitstream))
	}
}

// TestIngestionHardening pins the decode-side fixes on the ingestion path:
// descriptive 400s for empty bodies and trailing JSON, 413 (not 400, and
// never 500) when the body trips MaxBytesReader.
func TestIngestionHardening(t *testing.T) {
	_, ts := newTestServer(t, jpgd.Config{MaxBodyBytes: 256})

	cases := []struct {
		name, body string
		status     int
		want       string // substring of the error message
	}{
		{"empty-body", "", http.StatusBadRequest, "empty request body"},
		{"whitespace-body", "   \n", http.StatusBadRequest, "empty request body"},
		{"trailing-document", `{"xdl":"x"}{"xdl":"y"}`, http.StatusBadRequest, "after the JSON document"},
		{"trailing-junk", `{"xdl":"x"} garbage`, http.StatusBadRequest, "after the JSON document"},
		{"unknown-field", `{"bogus":1}`, http.StatusBadRequest, "unknown field"},
		{"oversized", `{"base":"` + strings.Repeat("A", 512) + `"}`,
			http.StatusRequestEntityTooLarge, "exceeds 256 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error envelope not JSON: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (error %q)", resp.StatusCode, tc.status, e.Error)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

func TestVerifyEndpoint(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	post := func(t *testing.T, req jpgd.VerifyRequest) (int, jpgd.VerifyResponse) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vr jpgd.VerifyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode, vr
	}

	t.Run("clean-full", func(t *testing.T) {
		status, vr := post(t, jpgd.VerifyRequest{
			Bitstream: base64.StdEncoding.EncodeToString(f.base.Bitstream),
		})
		if status != http.StatusOK || !vr.OK {
			t.Fatalf("status %d, ok=%v, findings %+v", status, vr.OK, vr.Findings)
		}
		if !vr.Started || vr.FramesWritten == 0 {
			t.Fatalf("unexpected verdict: %+v", vr)
		}
	})
	t.Run("corrupted-full", func(t *testing.T) {
		bad := append([]byte(nil), f.base.Bitstream...)
		bad[len(bad)/2] ^= 0x10
		status, vr := post(t, jpgd.VerifyRequest{
			Bitstream: base64.StdEncoding.EncodeToString(bad),
		})
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if vr.OK {
			t.Fatal("corrupted stream verified OK")
		}
		found := false
		for _, fd := range vr.Findings {
			if fd.Code == "crc-mismatch" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no crc-mismatch finding: %+v", vr.Findings)
		}
	})
	t.Run("partial-against-base", func(t *testing.T) {
		// Generate a partial through the API, then verify it against its base.
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
			bytes.NewReader(generateBody(t, f, nil)))
		if err != nil {
			t.Fatal(err)
		}
		var gr jpgd.GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate status %d", resp.StatusCode)
		}
		status, vr := post(t, jpgd.VerifyRequest{
			Bitstream: base64.StdEncoding.EncodeToString(gr.Bitstream),
			Base:      base64.StdEncoding.EncodeToString(f.base.Bitstream),
		})
		if status != http.StatusOK || !vr.OK {
			t.Fatalf("status %d, ok=%v, findings %+v", status, vr.OK, vr.Findings)
		}
		if vr.Started {
			t.Fatal("partial reported as starting the device")
		}
	})
	t.Run("full-as-partial", func(t *testing.T) {
		status, vr := post(t, jpgd.VerifyRequest{
			Bitstream: base64.StdEncoding.EncodeToString(f.base.Bitstream),
			Base:      base64.StdEncoding.EncodeToString(f.base.Bitstream),
		})
		if status != http.StatusOK || vr.OK {
			t.Fatalf("full stream as partial: status %d, ok=%v", status, vr.OK)
		}
	})
	t.Run("bad-envelope", func(t *testing.T) {
		if status, _ := post(t, jpgd.VerifyRequest{}); status != http.StatusBadRequest {
			t.Fatalf("missing bitstream: status %d", status)
		}
		if status, _ := post(t, jpgd.VerifyRequest{Bitstream: "!!!"}); status != http.StatusBadRequest {
			t.Fatalf("bad base64: status %d", status)
		}
	})
}

// TestGenerateVerifyOption runs /v1/generate with verify=true and checks the
// result is byte-identical to an unverified run.
func TestGenerateVerifyOption(t *testing.T) {
	f := buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{})

	gen := func(t *testing.T, verify bool) jpgd.GenerateResponse {
		t.Helper()
		body, err := json.Marshal(jpgd.GenerateRequest{
			Base:   base64.StdEncoding.EncodeToString(f.base.Bitstream),
			XDL:    f.variant.XDL,
			UCF:    f.variant.UCF,
			Name:   "u1_lfsr",
			Verify: verify,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var gr jpgd.GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			t.Fatal(err)
		}
		return gr
	}

	plain := gen(t, false)
	verified := gen(t, true)
	if !bytes.Equal(plain.Bitstream, verified.Bitstream) {
		t.Fatal("verify=true changed the generated bitstream")
	}
}
