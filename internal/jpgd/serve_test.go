package jpgd_test

// Serving-layer tests: request coalescing (N identical requests, one flow
// execution), the hot-artifact cache (zero-rebuild repeats, ETag
// revalidation), admission control (deterministic shedding with
// Retry-After), and the graceful drain covering queued requests and
// coalesced followers. Everything runs under -race in CI.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/jpgd"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func buildBody(t *testing.T, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(jpgd.BuildRequest{
		Part:      "XCV50",
		Instances: "u1/=counter:bits=6;u2/=sbox:n=8,seed=3",
		Seed:      seed,
		Variant:   &jpgd.VariantRequest{Prefix: "u1/", Gen: "lfsr:bits=6", Seed: seed + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

type result struct {
	status     int
	xcache     string
	etag       string
	retryAfter string
	body       []byte
	err        error
}

func post(ts string, path string, body []byte, hdr map[string]string) result {
	req, err := http.NewRequest("POST", ts+path, bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return result{
		status:     resp.StatusCode,
		xcache:     resp.Header.Get("X-Cache"),
		etag:       resp.Header.Get("ETag"),
		retryAfter: resp.Header.Get("Retry-After"),
		body:       b,
		err:        err,
	}
}

// TestCoalescedGeneratesSingleExecution is the concurrency acceptance test:
// N parallel identical generate requests answer byte-identical bodies with
// exactly one underlying flow execution, counter-asserted via the obs
// registry.
func TestCoalescedGeneratesSingleExecution(t *testing.T) {
	f := buildFixture(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, jpgd.Config{Registry: reg})
	body := generateBody(t, f, nil)

	const n = 12
	results := make([]result, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i] = post(ts.URL, "/v1/generate", body, nil)
		}(i)
	}
	start.Done()
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d body differs from request 0", i)
		}
		if r.etag == "" || r.etag != results[0].etag {
			t.Fatalf("request %d ETag %q differs from %q", i, r.etag, results[0].etag)
		}
	}
	if len(results[0].body) == 0 {
		t.Fatal("empty response bodies")
	}

	if execs := reg.GetCounter("jpgd.exec").Value(); execs != 1 {
		t.Fatalf("jpgd.exec = %d, want exactly 1 flow execution for %d requests", execs, n)
	}
	if gens := reg.GetCounter("jpgd.generates").Value(); gens != 1 {
		t.Fatalf("jpgd.generates = %d, want 1", gens)
	}
	// Every non-leader was served without executing: either it coalesced
	// onto the leader's flight or it hit the artifact cache.
	followers := reg.GetCounter("jpgd.coalesce.follower").Value()
	hits := reg.GetCounter("jpgd.artifact.hit").Value()
	if followers+hits != n-1 {
		t.Fatalf("followers(%d) + artifact hits(%d) != %d", followers, hits, n-1)
	}
}

// TestCancelledLeaderPromotesFollower: when a leader's client hangs up
// mid-execution, its cancellation is not the answer for the identical
// requests coalesced onto it. A waiting follower is promoted, runs the
// endpoint under its own context and answers what a fresh request answers.
// The leader's hang-up is counted as a closed client, not a server error.
func TestCancelledLeaderPromotesFollower(t *testing.T) {
	f := buildFixture(t)
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, jpgd.Config{Registry: reg})
	// The injected latency is waited on the request context, so the leader
	// is still executing when its client cancels.
	body := generateBody(t, f, &jpgd.DownloadRequest{Faults: "latency=300ms"})

	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(lctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		leader <- err
	}()
	waitFor(t, "the leader to execute", func() bool {
		return reg.GetCounter("jpgd.exec").Value() == 1
	})
	follower := make(chan result, 1)
	go func() { follower <- post(ts.URL, "/v1/generate", body, nil) }()
	waitFor(t, "the follower to wait on the leader", func() bool {
		return srv.FlightWaiters("generate", body) == 1
	})
	cancel()
	if err := <-leader; err == nil {
		t.Fatal("the cancelled leader's client got an answer")
	}

	r := <-follower
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("follower of a cancelled leader: %v status %d X-Cache %q: %s", r.err, r.status, r.xcache, r.body)
	}
	if execs := reg.GetCounter("jpgd.exec").Value(); execs != 2 {
		t.Fatalf("jpgd.exec = %d, want 2 (the leader's and the promoted follower's)", execs)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.GetCounter("jpgd.http_errors").Value(); n != 0 {
		t.Fatalf("jpgd.http_errors = %d, want 0 (the leader's client hung up)", n)
	}
	if n := reg.GetCounter("jpgd.client_closed").Value(); n != 1 {
		t.Fatalf("jpgd.client_closed = %d, want 1", n)
	}
	_, fresh := newTestServer(t, jpgd.Config{Serve: jpgd.ServeOptions{NoCoalesce: true, ArtifactCacheBytes: -1}})
	want := post(fresh.URL, "/v1/generate", body, nil)
	if want.err != nil || want.status != http.StatusOK {
		t.Fatalf("fresh request: %v status %d: %s", want.err, want.status, want.body)
	}
	if !bytes.Equal(r.body, want.body) {
		t.Fatal("the promoted follower's body differs from a fresh request's")
	}
}

// TestQueuedClientHangUpIsNotShed: a request queued for admission whose
// client hangs up was neither shed by the server nor failed by it. It
// counts as a closed client, and its jpgd.request span is not a failure.
func TestQueuedClientHangUpIsNotShed(t *testing.T) {
	f := buildFixture(t)
	reg := obs.NewRegistry()
	rec := flightrec.New(256)
	srv, ts := newTestServer(t, jpgd.Config{
		Registry: reg,
		Recorder: rec,
		Serve:    jpgd.ServeOptions{MaxInflight: 1, Queue: 8},
	})
	// The injected latency holds the only admission slot well past the
	// queued request's hang-up.
	slow := make(chan result, 1)
	go func() {
		slow <- post(ts.URL, "/v1/generate", generateBody(t, f, &jpgd.DownloadRequest{Faults: "latency=1s"}), nil)
	}()
	waitFor(t, "the slow request to hold the admission slot", func() bool {
		return srv.ServeStats().Inflight == 1
	})

	qctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(qctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(generateBody(t, f, nil)))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		queued <- err
	}()
	waitFor(t, "a request to queue for admission", func() bool {
		return srv.ServeStats().Queued == 1
	})
	cancel()
	if err := <-queued; err == nil {
		t.Fatal("the queued request's cancelled client got an answer")
	}
	if r := <-slow; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("slow request: %v status %d: %s", r.err, r.status, r.body)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		want int64
	}{
		{"jpgd.shed.deadline", 0}, {"jpgd.shed", 0}, {"jpgd.http_errors", 0}, {"jpgd.client_closed", 1},
	} {
		if n := reg.GetCounter(c.name).Value(); n != c.want {
			t.Fatalf("%s = %d, want %d", c.name, n, c.want)
		}
	}
	for _, e := range rec.Dump().Errors {
		if e.Source == "jpgd.request" {
			t.Fatalf("a closed client's request recorded as failed: %+v", e)
		}
	}
}

// TestArtifactCacheServesRepeats pins the zero-rebuild hot path: a repeat
// request is answered from the artifact cache (X-Cache: hit), byte-identical,
// without another handler execution, and revalidates via If-None-Match.
func TestArtifactCacheServesRepeats(t *testing.T) {
	f := buildFixture(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, jpgd.Config{Registry: reg})
	body := generateBody(t, f, nil)

	cold := post(ts.URL, "/v1/generate", body, nil)
	if cold.err != nil || cold.status != http.StatusOK {
		t.Fatalf("cold: %v status %d", cold.err, cold.status)
	}
	if cold.xcache != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", cold.xcache)
	}
	hot := post(ts.URL, "/v1/generate", body, nil)
	if hot.err != nil || hot.status != http.StatusOK {
		t.Fatalf("hot: %v status %d", hot.err, hot.status)
	}
	if hot.xcache != "hit" {
		t.Fatalf("hot X-Cache = %q, want hit", hot.xcache)
	}
	if !bytes.Equal(cold.body, hot.body) {
		t.Fatal("cached body differs from cold body")
	}
	if hot.etag == "" || hot.etag != cold.etag {
		t.Fatalf("ETags differ: %q vs %q", cold.etag, hot.etag)
	}
	if execs := reg.GetCounter("jpgd.exec").Value(); execs != 1 {
		t.Fatalf("jpgd.exec = %d after a hot repeat, want 1", execs)
	}

	// Conditional revalidation: a matching If-None-Match answers 304 with no
	// body.
	cond := post(ts.URL, "/v1/generate", body, map[string]string{"If-None-Match": cold.etag})
	if cond.err != nil {
		t.Fatal(cond.err)
	}
	if cond.status != http.StatusNotModified || len(cond.body) != 0 {
		t.Fatalf("revalidation: status %d, %d body bytes", cond.status, len(cond.body))
	}

	// The new serving counters are exposed on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"jpg_jpgd_artifact_hit", "jpg_jpgd_exec", "jpg_jpgd_shed"} {
		if !bytes.Contains(mb, []byte(want)) {
			t.Fatalf("/metrics lacks %s", want)
		}
	}
}

// TestBuildBodyIsAFunctionOfTheRequest sends one /v1/build body twice to a
// server with coalescing and the artifact cache off: both answers are fresh
// executions and must be byte-identical, so a cached or coalesced body can
// stand in for either.
func TestBuildBodyIsAFunctionOfTheRequest(t *testing.T) {
	_, ts := newTestServer(t, jpgd.Config{Serve: jpgd.ServeOptions{NoCoalesce: true, ArtifactCacheBytes: -1}})
	body := buildBody(t, 1)
	first := post(ts.URL, "/v1/build", body, nil)
	second := post(ts.URL, "/v1/build", body, nil)
	for _, r := range []result{first, second} {
		if r.err != nil || r.status != http.StatusOK || r.xcache != "miss" {
			t.Fatalf("build: %v status %d X-Cache %q", r.err, r.status, r.xcache)
		}
	}
	if !bytes.Equal(first.body, second.body) {
		t.Fatalf("two executions of one build request differ (%d and %d bytes)", len(first.body), len(second.body))
	}
}

// TestAdmissionShedsDeterministically saturates a MaxInflight=1, no-queue
// server and checks the overflow request is rejected immediately with 429 +
// Retry-After, then succeeds once capacity frees up.
func TestAdmissionShedsDeterministically(t *testing.T) {
	buildFixture(t)
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, jpgd.Config{
		Registry: reg,
		Serve:    jpgd.ServeOptions{MaxInflight: 1, Queue: -1},
	})

	slow := make(chan result, 1)
	go func() { slow <- post(ts.URL, "/v1/build", buildBody(t, 11), nil) }()
	waitFor(t, "slow build to hold the admission slot", func() bool {
		return srv.ServeStats().Inflight == 1
	})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/build", bytes.NewReader(buildBody(t, 12)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	if shed := reg.GetCounter("jpgd.shed.queue_full").Value(); shed != 1 {
		t.Fatalf("jpgd.shed.queue_full = %d, want 1", shed)
	}

	if r := <-slow; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("slow build: %v status %d", r.err, r.status)
	}
	// Capacity is free again: the same request is now admitted.
	if r := post(ts.URL, "/v1/build", buildBody(t, 12), nil); r.status != http.StatusOK {
		t.Fatalf("retry after shed: status %d: %s", r.status, r.body)
	}
}

// TestDrainWaitsForQueuedAndCoalesced is the drain regression test: a
// graceful drain must wait for coalesced followers and queued-but-unadmitted
// requests — not just directly executing handlers — while shedding new
// arrivals.
func TestDrainWaitsForQueuedAndCoalesced(t *testing.T) {
	buildFixture(t)
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, jpgd.Config{
		Registry: reg,
		Serve:    jpgd.ServeOptions{MaxInflight: 1, Queue: 8},
	})

	// A: executing leader (holds the only slot).
	leaderBody := buildBody(t, 21)
	resA := make(chan result, 1)
	go func() { resA <- post(ts.URL, "/v1/build", leaderBody, nil) }()
	waitFor(t, "leader to be admitted", func() bool {
		return srv.ServeStats().Inflight == 1
	})

	// B: identical request — a coalesced follower of A.
	resB := make(chan result, 1)
	go func() { resB <- post(ts.URL, "/v1/build", leaderBody, nil) }()
	// C: distinct request — queued behind A's slot.
	resC := make(chan result, 1)
	go func() { resC <- post(ts.URL, "/v1/build", buildBody(t, 22), nil) }()
	waitFor(t, "a request to queue for admission", func() bool {
		return srv.ServeStats().Queued == 1
	})
	waitFor(t, "all three requests to enter the pipeline", func() bool {
		return reg.GetCounter("jpgd.requests").Value() == 3
	})

	srv.BeginDrain()

	// New arrivals are shed with 503 while the pipeline drains.
	shed := post(ts.URL, "/v1/build", buildBody(t, 23), nil)
	if shed.status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", shed.status)
	}
	if n := reg.GetCounter("jpgd.shed.draining").Value(); n != 1 {
		t.Fatalf("jpgd.shed.draining = %d, want 1", n)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drain returned, so server-side nothing may remain queued or executing,
	// and the queued request must have been admitted and run (exec counts the
	// leader A and the queued C; follower B shares A's execution).
	if st := srv.ServeStats(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("after drain: inflight=%d queued=%d, want 0/0", st.Inflight, st.Queued)
	}
	if execs := reg.GetCounter("jpgd.exec").Value(); execs != 2 {
		t.Fatalf("jpgd.exec = %d after drain, want 2 (drain returned before the queued request ran?)", execs)
	}

	// The clients observe their answers; a short grace period covers client
	// goroutine scheduling (the server has already written every response).
	for name, ch := range map[string]chan result{"leader": resA, "follower": resB, "queued": resC} {
		select {
		case r := <-ch:
			if r.err != nil || r.status != http.StatusOK {
				t.Fatalf("%s after drain: %v status %d: %s", name, r.err, r.status, r.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s request never completed", name)
		}
	}
}

// TestRequestTimeoutAnswers503 bounds a request with a deadline far below a
// cold build's cost and checks the shed is a 503 + Retry-After, not a 500.
func TestRequestTimeoutAnswers503(t *testing.T) {
	buildFixture(t)
	_, ts := newTestServer(t, jpgd.Config{
		Serve: jpgd.ServeOptions{RequestTimeout: time.Millisecond},
	})
	r := post(ts.URL, "/v1/build", buildBody(t, 31), nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", r.status, r.body)
	}
	if r.retryAfter == "" {
		t.Fatal("deadline 503 lacks Retry-After")
	}
}

// TestVerifyRepeatsFromArtifactCache pins /v1/verify to the shared request
// path: its answer is a pure function of its body, so a repeat is an
// artifact-cache hit with the same bytes and no second execution.
func TestVerifyRepeatsFromArtifactCache(t *testing.T) {
	f := buildFixture(t)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, jpgd.Config{Registry: reg})
	body, err := json.Marshal(jpgd.VerifyRequest{Bitstream: base64.StdEncoding.EncodeToString(f.base.Bitstream)})
	if err != nil {
		t.Fatal(err)
	}
	cold := post(ts.URL, "/v1/verify", body, nil)
	hot := post(ts.URL, "/v1/verify", body, nil)
	for _, r := range []result{cold, hot} {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("verify: %v status %d: %s", r.err, r.status, r.body)
		}
	}
	if cold.xcache != "miss" || hot.xcache != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit", cold.xcache, hot.xcache)
	}
	if !bytes.Equal(cold.body, hot.body) {
		t.Fatal("cached verify body differs from the executed one")
	}
	if execs := reg.GetCounter("jpgd.exec").Value(); execs != 1 {
		t.Fatalf("jpgd.exec = %d after a repeated verify, want 1", execs)
	}
}

// TestGetAnswers405BeforeAdmission checks the pipeline's one method check:
// a GET on any /v1 route answers 405 with the error envelope and never
// takes an admission slot or runs the endpoint.
func TestGetAnswers405BeforeAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, jpgd.Config{Registry: reg})
	for _, path := range []string{"/v1/generate", "/v1/build", "/v1/verify"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil || e.Error == "" {
			t.Fatalf("GET %s: status %d, envelope %+v (%v)", path, resp.StatusCode, e, err)
		}
	}
	for _, name := range []string{"jpgd.exec", "jpgd.admitted"} {
		if n := reg.GetCounter(name).Value(); n != 0 {
			t.Fatalf("%s = %d after three GETs, want 0", name, n)
		}
	}
}

func TestServeOptionsFromEnv(t *testing.T) {
	t.Setenv(jpgd.EnvMaxInflight, "3")
	t.Setenv(jpgd.EnvQueue, "0")
	t.Setenv(jpgd.EnvArtifactCacheMB, "2")
	t.Setenv(jpgd.EnvCoalesce, "off")
	t.Setenv(jpgd.EnvRequestTimeout, "250ms")
	o := jpgd.ServeOptionsFromEnv()
	if o.MaxInflight != 3 {
		t.Fatalf("MaxInflight = %d", o.MaxInflight)
	}
	if o.Queue >= 0 {
		t.Fatalf("Queue = %d, want negative (explicit no-queue)", o.Queue)
	}
	if o.ArtifactCacheBytes != 2<<20 {
		t.Fatalf("ArtifactCacheBytes = %d", o.ArtifactCacheBytes)
	}
	if !o.NoCoalesce {
		t.Fatal("JPGD_COALESCE=off did not disable coalescing")
	}
	if o.RequestTimeout != 250*time.Millisecond {
		t.Fatalf("RequestTimeout = %v", o.RequestTimeout)
	}
}
