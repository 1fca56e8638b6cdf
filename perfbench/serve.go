package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitfile"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/jpgd"
	"repro/internal/obs"
)

// serve-mixed: /v1/generate requests for the fig4 variants, against the
// fig4 base, sent to an in-process jpgd over loopback HTTP. The server runs
// its default serving options with no stage cache. The client is a closed
// loop: each step sends one request, or one new body twice at once so that
// the two coalesce, and waits for the answers before the next step. A
// seeded third of the steps repeat a body of a hot set warmed in set-up;
// the others carry a new body (a fresh module name, so the artifact cache
// cannot answer it and the handler builds a fresh project). New bodies
// rotate over the variants and over the options Strict, Strict+Compress and
// Strict+Delta. The hot/new split is an assumption, not a recorded trace;
// it keeps the median request an execution.
//
// The loop is closed because an open one measured the host more than the
// server on a small shared virtual machine: between arrivals the virtual
// CPUs idle, every hand-off between client and server then waits for one
// to wake, and the latencies of seeded Poisson arrivals at 20-50 req/s
// spread twice as widely across runs (see README, "Run-to-run noise").

const (
	serveHotShare  = 1.0 / 3 // steps that repeat a hot body
	serveTwinEvery = 10      // every tenth new body is sent twice at once
	// serveRepeat is how many leading steps the exact-repeat value covers.
	serveRepeat = 300
	// serveHeapAt is how many new bodies have been answered when the loop
	// reads the live heap. The artifact cache keeps every answer until it
	// is full, so a reading at the end would grow with the run's length.
	serveHeapAt = 200
)

// serveOptions are the request options new bodies rotate over.
var serveOptions = []string{`,"strict":true`, `,"strict":true,"compress":true`, `,"strict":true,"delta":true`}

// bodySpec names a request body: a fig4 variant, an option and a module
// name. Hot bodies come first, one per variant and option.
type bodySpec struct {
	variant, option int
	name            string
}

// schedule is the seeded request sequence. bodies[:hot] are the hot set;
// new bodies are appended as they are drawn.
type schedule struct {
	rng      *rand.Rand
	variants int
	bodies   []bodySpec
	hot      int
	fresh    int // new bodies drawn so far
}

func newSchedule(seed int64, variants int) *schedule {
	s := &schedule{rng: rand.New(rand.NewSource(seed)), variants: variants, hot: variants * len(serveOptions)}
	for v := 0; v < variants; v++ {
		for o := range serveOptions {
			s.bodies = append(s.bodies, bodySpec{variant: v, option: o, name: "hot"})
		}
	}
	return s
}

// next draws one step: the body to send and how many copies of it to send
// at once. A hot step picks a seeded body of the hot set. New bodies
// rotate over the variants, then the options; every tenth is sent twice.
func (s *schedule) next() (body, copies int) {
	if s.rng.Float64() < serveHotShare {
		return s.rng.Intn(s.hot), 1
	}
	k := s.fresh
	s.fresh++
	s.bodies = append(s.bodies, bodySpec{
		variant: k % s.variants, option: k / s.variants % len(serveOptions), name: fmt.Sprintf("n%d", k),
	})
	if k%serveTwinEvery == 0 {
		return len(s.bodies) - 1, 2
	}
	return len(s.bodies) - 1, 1
}

// serve is the workload's set-up: the fig4 variants' request bodies,
// pre-encoded, and a running server with a client of at most nproc
// connections.
type serve struct {
	// heads[v][o] is the body of variant v with option o up to the module
	// name; a body is head + name + `"}`.
	heads  [][][]byte
	url    string
	client *http.Client
	stop   func() error
}

func buildServe(ctx context.Context) (*serve, error) {
	f, err := buildFig4(ctx)
	if err != nil {
		return nil, err
	}
	s := &serve{}
	base, err := json.Marshal(base64.StdEncoding.EncodeToString(f.base.Bitstream))
	if err != nil {
		return nil, err
	}
	for vi, v := range f.variants {
		a, err := flow.BuildVariant(ctx, f.base, v.prefix, v.gen, flow.Options{Seed: baseSeed + int64(vi), Workers: 1})
		if err != nil {
			return nil, err
		}
		xdlJSON, err := json.Marshal(a.XDL)
		if err != nil {
			return nil, err
		}
		ucfJSON, err := json.Marshal(a.UCF)
		if err != nil {
			return nil, err
		}
		var hs [][]byte
		for _, opt := range serveOptions {
			var b bytes.Buffer
			b.WriteString(`{"base":`)
			b.Write(base)
			b.WriteString(`,"xdl":`)
			b.Write(xdlJSON)
			b.WriteString(`,"ucf":`)
			b.Write(ucfJSON)
			b.WriteString(opt)
			b.WriteString(`,"name":"`)
			hs = append(hs, b.Bytes())
		}
		s.heads = append(s.heads, hs)
	}

	srv := jpgd.New(jpgd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln) }()
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.url = "http://" + ln.Addr().String() + "/v1/generate"
	s.client = &http.Client{Transport: tr}
	s.stop = func() error {
		cancel()
		err := <-done
		tr.CloseIdleConnections()
		return err
	}
	return s, nil
}

// body assembles a request body.
func (s *serve) body(b bodySpec) []byte {
	head := s.heads[b.variant][b.option]
	out := make([]byte, 0, len(head)+len(b.name)+2)
	return append(append(append(out, head...), b.name...), `"}`...)
}

// outcome is one request as the client saw it.
type outcome struct {
	sent, done time.Duration // from the loop start
	status     int
	cache      string // X-Cache: hit, miss or coalesced
	hash       [32]byte
	err        error
}

// request is one request of a run.
type request struct {
	body int           // index into schedule.bodies
	due  time.Duration // when its step began, from the loop start
	outcome
}

// send posts one body and reads the whole response.
func (s *serve) send(ctx context.Context, spec bodySpec, start time.Time) outcome {
	head := s.heads[spec.variant][spec.option]
	rd := io.MultiReader(bytes.NewReader(head), strings.NewReader(spec.name), strings.NewReader(`"}`))
	var o outcome
	o.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, rd)
	if err != nil {
		o.err = err
		return o
	}
	req.ContentLength = int64(len(head) + len(spec.name) + 2)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		o.err = err
		o.done = time.Since(start)
		return o
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	o.err, o.status, o.cache = err, resp.StatusCode, resp.Header.Get("X-Cache")
	copy(o.hash[:], h.Sum(nil))
	return o
}

// warm sends every hot body once, so the timed part starts with the hot
// set in the artifact cache.
func (s *serve) warm(ctx context.Context, sch *schedule) error {
	for _, b := range sch.bodies[:sch.hot] {
		if o := s.send(ctx, b, time.Now()); o.err != nil || o.status != http.StatusOK {
			return fmt.Errorf("warming %v: status %d: %v", b, o.status, o.err)
		}
	}
	return nil
}

// loopRun is what one closed loop sent and saw.
type loopRun struct {
	reqs []request
	// wall and cpu are the loop's wall-clock and process CPU time, less
	// the heap reading.
	wall, cpu time.Duration
	// heapMB is the live heap once serveHeapAt new bodies were answered.
	heapMB float64
	// leading is how many requests the first serveRepeat steps sent, and
	// carried the frames their executions carried: those steps are the
	// same for every run of a seed, whatever its length.
	leading int
	carried int64
}

// loop runs the closed loop for at least d, at least minHot hot requests
// and minNew new bodies, giving up at 4d.
func (s *serve) loop(ctx context.Context, sch *schedule, d time.Duration, minHot, minNew int) loopRun {
	var r loopRun
	carried := obs.GetCounter("core.frames_carried")
	var wg sync.WaitGroup
	var paused opTime
	hot := 0
	c0, start := cpuTime(), time.Now()
	for step := 0; ; step++ {
		if r.heapMB == 0 && sch.fresh >= serveHeapAt {
			sw := startWatch()
			r.heapMB = liveHeapMB()
			paused = sw.stop()
		}
		if step == serveRepeat {
			r.leading = len(r.reqs)
		}
		el := time.Since(start)
		if (el >= d && hot >= minHot && sch.fresh >= minNew) || el >= 4*d {
			r.wall, r.cpu = el-paused.wall, cpuTime()-c0-paused.cpu
			if step < serveRepeat {
				r.leading = len(r.reqs)
			}
			return r
		}
		body, copies := sch.next()
		if body < sch.hot {
			hot++
		}
		f0 := carried.Value()
		first := len(r.reqs)
		for k := 0; k < copies; k++ {
			r.reqs = append(r.reqs, request{body: body, due: el})
		}
		for k := first; k < len(r.reqs); k++ {
			wg.Add(1)
			go func(q *request) {
				defer wg.Done()
				q.outcome = s.send(ctx, sch.bodies[q.body], start)
			}(&r.reqs[k])
		}
		wg.Wait()
		if step < serveRepeat {
			r.carried += carried.Value() - f0
		}
	}
}

// generateJSON is the /v1/generate handler's work on one body, split into
// its layer calls: decode (JSON, base64, .bit unwrap), new project, add
// module, partial, encode. l may be nil for an untimed replay.
func generateJSON(ctx context.Context, body []byte, l *layers) ([]byte, error) {
	t := time.Now()
	var req jpgd.GenerateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	baseFile, err := base64.StdEncoding.DecodeString(req.Base)
	if err != nil {
		return nil, err
	}
	baseBS, _, err := bitfile.Unwrap(baseFile)
	if err != nil {
		return nil, err
	}
	l.since("jpgd.decode_ms", t)

	t = time.Now()
	proj, err := core.NewProject(baseBS)
	l.since("core.new_project_ms", t)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	m, err := proj.AddModule(req.Name, req.XDL, req.UCF)
	l.since("core.add_module_ms", t)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	res, err := proj.GeneratePartialCtx(ctx, m, core.GenerateOptions{Strict: req.Strict, Compress: req.Compress, Delta: req.Delta})
	l.since("core.partial_ms", t)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(jpgd.GenerateResponse{
		Part: proj.Part.Name, Bitstream: res.Bitstream, Bytes: len(res.Bitstream),
		Frames: len(res.FARs), FramesChanged: res.FramesChanged, Region: res.Region.String(),
	})
	l.since("jpgd.encode_ms", t)
	return buf.Bytes(), err
}

// classify splits requests into latency samples (ms from the start of
// their step; a failed request is +Inf) overall and per X-Cache class.
func classify(reqs []request) (all, hit, miss []float64, failed int) {
	for _, q := range reqs {
		lat := ms(q.done - q.due)
		if q.err != nil || q.status != http.StatusOK {
			failed++
			lat = math.Inf(1)
		}
		all = append(all, lat)
		switch q.cache {
		case "hit":
			hit = append(hit, lat)
		case "miss":
			miss = append(miss, lat)
		}
	}
	return all, hit, miss, failed
}

// lateP95 is the p95 of how late the client sent requests (send time minus
// the start of their step), in ms.
func lateP95(reqs []request) float64 {
	late := make([]float64, len(reqs))
	for i, q := range reqs {
		late[i] = ms(q.sent - q.due)
	}
	sort.Float64s(late)
	p95, _ := quantile(late, 0.95)
	return p95
}

// checkBodies compares every served body with the JSON generateJSON builds
// for the same request. Bodies differing only in module name answer the
// same JSON, so each variant and option is built once.
func (s *serve) checkBodies(ctx context.Context, sch *schedule, reqs []request) error {
	want := map[[2]int][32]byte{}
	for i, q := range reqs {
		if q.err != nil || q.status != http.StatusOK {
			continue
		}
		b := sch.bodies[q.body]
		key := [2]int{b.variant, b.option}
		h, ok := want[key]
		if !ok {
			js, err := generateJSON(ctx, s.body(b), nil)
			if err != nil {
				return wrongf("rebuilding the response to %v: %v", b, err)
			}
			h = sha256.Sum256(js)
			want[key] = h
		}
		if q.hash != h {
			return wrongf("request %d (%s, variant %d, option %d, X-Cache %s): served body differs from the handler's JSON",
				i, b.name, b.variant, b.option, q.cache)
		}
	}
	return nil
}

func runServe(cfg runConfig) (*report, error) {
	ctx := context.Background()
	sch := newSchedule(cfg.seed, 10)
	// Set-up: base, the ten variants, request bodies, server boot and the
	// hot set warmed into the artifact cache.
	s, setupS, err := timeSetup(func() (*serve, error) {
		s, err := buildServe(ctx)
		if err != nil {
			return nil, err
		}
		if err := s.warm(ctx, sch); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		return s, nil
	}, func(s *serve) { s.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newReport()
	var rep repeats
	if cfg.trace {
		r.notes["setup_s"] = setupS
		rep, err = s.traced(ctx, sch, cfg.duration(), r)
	} else {
		rep, err = s.measure(ctx, sch, cfg.duration(), r)
		r.set("setup_s", setupS, setupReps)
	}
	if err == nil {
		err = checkRecorded(cfg, rep)
	}
	if stopErr := s.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping the server: %w", stopErr)
	}
	return r, err
}

// measure is the untraced run. Throughput and CPU time cover the whole
// loop but its heap reading: server and client together, with nothing
// else between requests.
func (s *serve) measure(ctx context.Context, sch *schedule, d time.Duration, r *report) (repeats, error) {
	need := minSamples(0.95)
	run := s.loop(ctx, sch, d, need, need)
	all, hit, miss, failed := classify(run.reqs)
	n := len(all)
	r.attempted, r.failed = n, failed
	r.set("ops_per_s", float64(n-failed)/run.wall.Seconds(), n)
	r.set("cpu_ms_per_op", ms(run.cpu)/float64(n), n)
	r.notes["gen.late_ms.p95"] = lateP95(run.reqs)
	r.notes["requests"] = map[string]int{"all": n, "hit": len(hit), "miss": len(miss),
		"coalesced": n - len(hit) - len(miss) - failed, "new_bodies": sch.fresh}
	r.set("live_heap_mb", run.heapMB, 1)
	if err := r.setTimings("latency_ms", all); err != nil {
		return nil, err
	}
	return repeats{"core.frames_carried": float64(run.carried)}, s.checkBodies(ctx, sch, run.reqs)
}

// jpgdCounters are the pipeline counters the traced run reads around the
// loop.
var jpgdCounters = []string{"jpgd.artifact.hit", "jpgd.coalesce.follower",
	"jpgd.exec", "jpgd.admitted", "jpgd.shed"}

// traced runs the loop once more for the pipeline's counts and the
// client-side latency by X-Cache class, then replays the bodies the
// leading steps executed through the handler's layer calls, untimed and
// timed, interleaved.
func (s *serve) traced(ctx context.Context, sch *schedule, d time.Duration, r *report) (repeats, error) {
	need := minSamples(0.95)
	c := readCounters(jpgdCounters...)
	wait0 := obs.Default.GetHistogram("jpgd.admit.wait_ns").Sum()
	run := s.loop(ctx, sch, d, need, need)
	dc := c.delta()
	waitNS := obs.Default.GetHistogram("jpgd.admit.wait_ns").Sum() - wait0
	if err := s.checkBodies(ctx, sch, run.reqs); err != nil {
		return nil, err
	}
	n := len(run.reqs)
	_, hit, miss, failed := classify(run.reqs)
	for name, xs := range map[string][]float64{"hit_ms": hit, "miss_ms": miss} {
		if err := r.setTimings(name, xs); err != nil {
			return nil, err
		}
	}
	r.ratio("jpgd.hit_ratio", float64(dc["jpgd.artifact.hit"]), float64(n), n)
	r.ratio("jpgd.coalesced_ratio", float64(dc["jpgd.coalesce.follower"]), float64(n), n)
	r.ratio("jpgd.exec_per_body", float64(dc["jpgd.exec"]), float64(sch.fresh), n)
	r.ratio("jpgd.admit_wait_ms", float64(waitNS)/1e6, float64(dc["jpgd.admitted"]), n)
	r.ratio("jpgd.shed", float64(dc["jpgd.shed"]), float64(n), n)
	r.set("gen.late_ms.p95", lateP95(run.reqs), n)

	// The op is one miss of the leading steps: its latency from the start
	// of its step, from the send time, and the body it executed. A hit runs
	// no handler layer; its whole latency from the send time is the
	// artifact path's.
	var fromDue, fromSend, hitPath time.Duration
	var bodies []bodySpec
	var hashes [][32]byte
	hits := 0
	for i, q := range run.reqs {
		if q.cache == "hit" && q.status == http.StatusOK {
			hitPath += q.done - q.sent
			hits++
		}
		if i >= run.leading || q.cache != "miss" || q.status != http.StatusOK {
			continue
		}
		fromDue += q.done - q.due
		fromSend += q.done - q.sent
		bodies = append(bodies, sch.bodies[q.body])
		hashes = append(hashes, q.hash)
	}
	r.ratio("jpgd.hit_ms", ms(hitPath), float64(hits), hits)
	k := len(bodies)
	if k == 0 {
		return nil, fmt.Errorf("no request executed")
	}
	cc := readCounters("core.frames_carried", "core.frames_changed")
	l := newLayers()
	var untraced, traced time.Duration
	for i, b := range bodies {
		body := s.body(b)
		t := time.Now()
		if _, err := generateJSON(ctx, body, nil); err != nil {
			return nil, err
		}
		untraced += time.Since(t)
		t = time.Now()
		js, err := generateJSON(ctx, body, l)
		traced += time.Since(t)
		if err != nil {
			return nil, err
		}
		if sha256.Sum256(js) != hashes[i] {
			return nil, wrongf("replay of %s: JSON differs from the served body", b.name)
		}
	}
	cd := cc.delta()
	// Each body was generated twice above.
	l.add("core.frames_carried", float64(cd["core.frames_carried"])/2)
	l.add("core.frames_changed", float64(cd["core.frames_changed"])/2)
	var handler time.Duration
	for _, busy := range l.busy {
		handler += busy
	}
	l.busy["jpgd.transport_ms"] = fromSend - handler
	l.ops, l.opDur = k, fromDue
	r.attempted, r.failed = n+2*k, failed
	l.report(r, 0)
	r.set("trace.overhead_ratio", float64(traced)/float64(untraced), k)
	r.ratio("core.changed_ratio", l.count["core.frames_changed"], l.count["core.frames_carried"], k)
	rep := repeats{"core.frames_carried": float64(run.carried)}
	return rep, rep.check(repeats{"core.frames_carried": l.count["core.frames_carried"]}, "replay vs served")
}
