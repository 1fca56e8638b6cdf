// Package jpgd is the live service surface of the reproduction: an HTTP
// daemon exposing the JPG tool (partial-bitstream generation over a base
// configuration) and the CAD flow behind it, together with the operational
// endpoints a production deployment needs — Prometheus metrics, health and
// readiness probes, a flight-recorder dump and pprof.
//
// Every request runs under one correlation ID (minted per request or
// adopted from X-Request-ID) and a per-request span collector. Its
// completed spans feed the process-wide flight recorder and, with a logger
// configured, become one log line each under the request's ID. A generate
// request therefore leaves a single-ID trail through every layer it
// touches: flow stages and their cache lookups, partial generation, board
// downloads, retries and fault injections, and the jpgd.request span,
// which is the access line and the failure record.
//
// Endpoints:
//
//	GET  /healthz          liveness (always 200 while the process serves)
//	GET  /readyz           readiness (503 while starting or draining)
//	GET  /metrics          Prometheus text exposition of the obs registry
//	GET  /debug/flightrec  recent spans and errors (?format=chrome for a trace)
//	GET  /debug/pprof/*    Go runtime profiling
//	POST /v1/generate      partial bitstream from base + XDL/UCF (JPG-over-HTTP)
//	POST /v1/build         CAD build: base design, optional variant + partial
//	POST /v1/verify        independent bitstream lint (internal/bitlint)
package jpgd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/bitfile"
	"repro/internal/bitlint"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	jpglog "repro/internal/obs/log"
	"repro/internal/obs/prom"
	"repro/internal/xhwif"
)

// DefaultMaxBodyBytes bounds request bodies (base bitstreams dominate).
const DefaultMaxBodyBytes = 64 << 20

// shutdownTimeout bounds the graceful drain of in-flight requests.
const shutdownTimeout = 10 * time.Second

// Config assembles a Server.
type Config struct {
	// Logger receives every structured event: each completed span of a
	// request, and the point events and lifecycle lines. nil disables
	// logging.
	Logger *slog.Logger
	// Registry is the metrics registry /metrics exposes (obs.Default when
	// nil — the registry every instrumented package reports to).
	Registry *obs.Registry
	// Recorder is the flight recorder completed spans feed (a
	// DefaultCapacity recorder when nil).
	Recorder *flightrec.Recorder
	// Cache, when set, memoizes CAD stages across requests (attached to
	// each request context).
	Cache *cache.Cache
	// MaxBodyBytes bounds request bodies (DefaultMaxBodyBytes when <= 0).
	MaxBodyBytes int64
	// DrainDelay is how long readiness reports not-ready before shutdown
	// starts, giving load balancers time to stop routing (0 = immediate).
	DrainDelay time.Duration
	// Serve tunes the throughput pipeline (request coalescing, hot-artifact
	// cache, admission control). The zero value enables everything with
	// defaults; see ServeOptions.
	Serve ServeOptions
}

// Server is the jpgd HTTP service.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	rec   *flightrec.Recorder
	pipe  *pipeline
	bases *lru[string, *baseEntry]
	ready atomic.Bool

	mRequests     *obs.Counter
	mErrors       *obs.Counter
	mClientClosed *obs.Counter
	mInflight     *obs.Gauge
	mRequestNS    *obs.Histogram
	mGenerates    *obs.Counter
	mBuilds       *obs.Counter
}

// New assembles a server from the config.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Recorder == nil {
		cfg.Recorder = flightrec.New(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		rec: cfg.Recorder,

		mRequests:     cfg.Registry.GetCounter("jpgd.requests"),
		mErrors:       cfg.Registry.GetCounter("jpgd.http_errors"),
		mClientClosed: cfg.Registry.GetCounter("jpgd.client_closed"),
		mInflight:     cfg.Registry.GetGauge("jpgd.inflight"),
		mRequestNS:    cfg.Registry.GetHistogram("jpgd.request_ns"),
		mGenerates:    cfg.Registry.GetCounter("jpgd.generates"),
		mBuilds:       cfg.Registry.GetCounter("jpgd.builds"),
	}
	s.pipe = newPipeline(cfg.Serve, cfg.Registry)
	s.bases = newBaseCache(baseCacheBytes, cfg.Registry)
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz state (false while starting or draining).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler builds the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/metrics", prom.Handler(s.reg))
	mux.HandleFunc("/debug/flightrec", s.handleFlightrec)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/v1/generate", s.instrument("generate", s.generate))
	mux.Handle("/v1/build", s.instrument("build", s.build))
	mux.Handle("/v1/verify", s.instrument("verify", s.verify))
	return mux
}

// multiSink fans completed spans out to several sinks: the flight recorder
// and the request's span-to-log bridge.
type multiSink []obs.Sink

func (m multiSink) Record(rec obs.SpanRecord) {
	for _, s := range m {
		s.Record(rec)
	}
}

// instrument wraps an API endpoint with the per-request observability stack
// — correlation ID (minted or adopted from X-Request-ID), request-bound
// logger, per-request span collector feeding the flight recorder and the
// log, the jpgd.request span and metrics — then runs the request through
// the serving pipeline (see serve.go) and delivers its answer.
//
// The jpgd.request span is the request's access line and failure record.
// A request whose own client hung up counts in jpgd.client_closed and is
// not failed: no one received its answer.
func (s *Server) instrument(route string, ep endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		client := r.Context()

		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = jpglog.NewRequestID()
		}
		ctx := jpglog.WithRequestID(jpglog.Attach(client, s.cfg.Logger), id)

		var sink obs.Sink = s.rec
		if l := jpglog.From(ctx); l != nil {
			sink = multiSink{s.rec, jpglog.SpanSink(l)}
		}
		ctx = obs.New(obs.WithSink(sink)).Attach(ctx)
		if s.cfg.Cache != nil {
			ctx = cache.With(ctx, s.cfg.Cache)
		}
		if s.pipe.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.pipe.opts.RequestTimeout)
			defer cancel()
		}

		ctx, sp := obs.Start(ctx, "jpgd.request")
		sp.SetStr(jpglog.FieldRequestID, id)
		sp.SetStr("route", route)
		sp.SetStr("method", r.Method)
		sp.SetStr("path", r.URL.Path)

		s.mRequests.Inc()
		s.mInflight.Add(1)
		defer s.mInflight.Add(-1)

		// The pipeline WaitGroup covers the full lifetime — queued for
		// admission and waiting as a coalesced follower included — so a
		// graceful drain waits for every request already accepted, not just
		// the ones executing a handler.
		s.pipe.wg.Add(1)
		defer s.pipe.wg.Done()

		w.Header().Set("X-Request-ID", id)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		r = r.WithContext(ctx)
		art, src := s.dispatch(route, r, ep)
		status, n := s.deliver(w, r, art, src)

		sp.SetInt("status", int64(status))
		sp.SetInt("bytes", int64(n))
		if src != "" {
			sp.SetStr("cache", src)
		}
		switch {
		case errors.Is(client.Err(), context.Canceled):
			s.mClientClosed.Inc()
			sp.SetBool("client_closed", true)
		case status >= 400:
			s.mErrors.Inc()
			sp.Fail(art.err)
		}
		sp.End()
		s.mRequestNS.Observe(time.Since(t0).Nanoseconds())
	})
}

// apiError is the JSON error envelope of the v1 endpoints. Like every v1
// response body it carries no correlation ID — that travels in the
// X-Request-ID header — so bodies stay pure functions of the request and
// can be shared across coalesced and cached deliveries.
type apiError struct {
	Error string `json:"error"`
}

// decodeJSON parses a request body into v. A body is malformed (400) when
// it is empty, is not a single JSON document, names unknown fields, or
// carries trailing data.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return badRequest(fmt.Errorf("empty request body (expected a JSON document)"))
		}
		return badRequest(fmt.Errorf("bad request body: %w", err))
	}
	// A second document (or any junk) after the request object is a
	// malformed payload, not something to silently ignore.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return badRequest(fmt.Errorf("unexpected data after the JSON document"))
	}
	return nil
}

// decodeBitstream decodes a base64 request field holding a raw bitstream
// or a .bit container. Every failure is the client's (400).
func decodeBitstream(field, b64 string) ([]byte, error) {
	file, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, badRequest(fmt.Errorf("%s is not base64: %w", field, err))
	}
	bs, _, err := bitfile.Unwrap(file)
	if err != nil {
		return nil, badRequest(err)
	}
	return bs, nil
}

// handleFlightrec dumps the flight recorder: JSON by default, a Chrome
// trace with ?format=chrome.
func (s *Server) handleFlightrec(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="jpgd-flightrec.trace.json"`)
		if err := s.rec.WriteChromeTrace(w, "jpgd"); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.rec.Dump()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// GenerateRequest is the /v1/generate body: the JPG tool's inputs as one
// JSON document. Base is the base design's complete bitstream (raw or .bit
// container), base64-encoded; XDL and UCF are the variant's files from its
// own CAD run.
type GenerateRequest struct {
	Base     string `json:"base"`
	XDL      string `json:"xdl"`
	UCF      string `json:"ucf"`
	Name     string `json:"name,omitempty"`
	Strict   bool   `json:"strict,omitempty"`
	Compress bool   `json:"compress,omitempty"`
	Delta    bool   `json:"delta,omitempty"`
	// Verify re-decodes the generated partial with the independent verifier
	// (internal/bitlint) before it is returned; the request fails on any
	// error finding. Results are byte-identical with it on or off.
	Verify bool `json:"verify,omitempty"`
	// Download, when present, also downloads the partial to a simulated
	// board configured with the base design, through the reliability layer.
	Download *DownloadRequest `json:"download,omitempty"`
}

// DownloadRequest tunes the simulated download of a generate request.
type DownloadRequest struct {
	// Retries caps download attempts (0 = xhwif default).
	Retries int `json:"retries,omitempty"`
	// TimeoutMS bounds the download end to end (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify reads touched frames back after the download.
	Verify bool `json:"verify,omitempty"`
	// Faults injects deterministic link faults (faults.Parse syntax).
	Faults string `json:"faults,omitempty"`
}

// DownloadResult reports the simulated download.
type DownloadResult struct {
	Attempts      int   `json:"attempts"`
	FramesWritten int   `json:"frames_written"`
	ModelTimeUS   int64 `json:"model_time_us"`
}

// GenerateResponse is the /v1/generate result. Bitstream is base64 (JSON's
// []byte encoding). The correlation ID is in the X-Request-ID response
// header, not the body: the body is a pure function of the request, so
// coalesced and cached deliveries can share it byte for byte.
type GenerateResponse struct {
	Part          string          `json:"part"`
	Bitstream     []byte          `json:"bitstream"`
	Bytes         int             `json:"bytes"`
	Frames        int             `json:"frames"`
	FramesChanged int             `json:"frames_changed"`
	Region        string          `json:"region"`
	Download      *DownloadResult `json:"download,omitempty"`
}

// fields lists the members decodeFlat fills. Download, an object, is not
// one of them: a body that carries it is decoded by decodeJSON. A non-nil
// base receives the base text when decodeFlat leaves it in the body.
func (r *GenerateRequest) fields(base *[]byte) []flatField {
	return []flatField{
		{name: "base", str: &r.Base, raw: base}, {name: "xdl", str: &r.XDL}, {name: "ucf", str: &r.UCF},
		{name: "name", str: &r.Name}, {name: "strict", flag: &r.Strict},
		{name: "compress", flag: &r.Compress}, {name: "delta", flag: &r.Delta},
		{name: "verify", flag: &r.Verify},
	}
}

// generate is the /v1/generate endpoint: the JPG tool over HTTP. Each
// request builds its own project on a clone of the cached base memory, so no
// request, write-back after a download included, can change a cached base.
func (s *Server) generate(ctx context.Context, body []byte) (any, error) {
	req, base, err := s.decodeGenerate(ctx, body)
	if err != nil {
		return nil, err
	}
	proj, err := core.NewProjectForPart(base.part, base.mem)
	if err != nil {
		return nil, err
	}
	name := req.Name
	if name == "" {
		name = "module"
	}
	m, err := proj.AddModule(name, req.XDL, req.UCF)
	if err != nil {
		return nil, badRequest(err)
	}
	opts := core.GenerateOptions{Strict: req.Strict, Compress: req.Compress, Delta: req.Delta, Verify: req.Verify}

	resp := GenerateResponse{Part: proj.Part.Name}
	var res *core.Result
	if req.Download != nil {
		board, err := s.boardWithBase(ctx, proj.Part, base.bs)
		if err != nil {
			return nil, err
		}
		hwif, err := wrapBoard(board, req.Download)
		if err != nil {
			return nil, badRequest(err)
		}
		var ds xhwif.DownloadStats
		res, ds, err = proj.GenerateAndDownload(ctx, m, hwif, opts)
		if err != nil {
			return nil, err
		}
		resp.Download = &DownloadResult{
			Attempts:      ds.Attempts,
			FramesWritten: ds.FramesWritten,
			ModelTimeUS:   ds.ModelTime.Microseconds(),
		}
	} else {
		res, err = proj.GeneratePartialCtx(ctx, m, opts)
		if err != nil {
			return nil, err
		}
	}
	s.mGenerates.Inc()
	resp.Bitstream = res.Bitstream
	resp.Bytes = len(res.Bitstream)
	resp.Frames = len(res.FARs)
	resp.FramesChanged = res.FramesChanged
	resp.Region = res.Region.String()
	return resp, nil
}

// decodeGenerate reads a generate body and looks its base up, under the
// jpgd.decode span: decoder says which decoder read the body, base whether
// the base cache held the base.
func (s *Server) decodeGenerate(ctx context.Context, body []byte) (req GenerateRequest, base *baseEntry, err error) {
	_, sp := obs.Start(ctx, "jpgd.decode")
	defer sp.End()
	var b64 []byte // the base text, where decodeFlat leaves it in body
	decoder, err := decodeRequest(body, &req, req.fields(&b64))
	sp.SetStr("decoder", decoder)
	if err != nil {
		return req, nil, err
	}
	if b64 == nil { // escaped, or read by encoding/json
		b64 = []byte(req.Base)
	}
	if len(b64) == 0 || req.XDL == "" || req.UCF == "" {
		return req, nil, badRequest(fmt.Errorf("base, xdl and ucf are required"))
	}
	base, hit, err := s.loadBase(b64)
	if hit {
		sp.SetStr("base", "hit")
	} else {
		sp.SetStr("base", "miss")
	}
	return req, base, err
}

// baseCacheBytes bounds the decoded-base cache: about six XCV1000 bases, or
// seventy XCV50 ones.
const baseCacheBytes = 16 << 20

// baseEntry is one decoded base, shared read-only by every request that
// carries the same base text: its part, the configuration memory the port
// model recovered from it, and the unwrapped bitstream boardWithBase
// downloads.
type baseEntry struct {
	part *device.Part
	mem  *frames.Memory
	bs   []byte
}

// newBaseCache is the decoded-base LRU, keyed by the base's raw base64 text:
// a map lookup on it costs less than hashing it, and exact equality needs no
// collision argument. An entry is charged for its key, its bytes and its
// memory. Counted in jpgd.base.*.
func newBaseCache(maxBytes int64, reg *obs.Registry) *lru[string, *baseEntry] {
	return newLRU(maxBytes, reg, "jpgd.base", func(b64 string, e *baseEntry) int64 {
		return int64(len(b64)+len(e.bs)) + 4*int64(e.part.TotalFrames()*e.part.FrameWords())
	})
}

// loadBase returns the decoded base for a request's base64 text and whether
// the base cache held it. A hit copies none of the text; a miss copies it
// once, into the key it is cached under. Only a base that decodes and makes
// a project is cached; a failing one answers its 400 every time.
func (s *Server) loadBase(text []byte) (*baseEntry, bool, error) {
	if e, ok := getBytes(s.bases, text); ok {
		return e, true, nil
	}
	b64 := string(text)
	bs, err := decodeBitstream("base", b64)
	if err != nil {
		return nil, false, err
	}
	proj, err := core.NewProject(bs)
	if err != nil {
		return nil, false, badRequest(err)
	}
	e := &baseEntry{part: proj.Part, mem: proj.Base, bs: bs}
	s.bases.put(b64, e)
	return e, false, nil
}

// VerifyRequest is the /v1/verify body: lint a bitstream with the
// independent verifier. Bitstream is base64 (raw stream or .bit container).
// With Base set, Bitstream is checked as a partial against that base
// configuration; otherwise it is verified as a full bitstream.
type VerifyRequest struct {
	Bitstream string `json:"bitstream"`
	Base      string `json:"base,omitempty"`
}

// fields lists the members decodeFlat fills.
func (r *VerifyRequest) fields() []flatField {
	return []flatField{{name: "bitstream", str: &r.Bitstream}, {name: "base", str: &r.Base}}
}

// VerifyFinding is one structured lint result in a VerifyResponse.
type VerifyFinding struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Offset   int    `json:"offset"`
	Detail   string `json:"detail"`
}

// VerifyResponse reports the verifier's verdict. OK is true iff no
// error-severity finding was recorded; warnings are reported but do not
// clear OK.
type VerifyResponse struct {
	Part          string          `json:"part"`
	OK            bool            `json:"ok"`
	Packets       int             `json:"packets"`
	FramesWritten int             `json:"frames_written"`
	CRCChecks     int             `json:"crc_checks"`
	Started       bool            `json:"started"`
	Findings      []VerifyFinding `json:"findings,omitempty"`
}

// verify is the /v1/verify endpoint: it lints a posted bitstream. Findings
// are the response, not an HTTP failure: an unsafe stream still answers 200
// with OK=false — only a malformed request envelope (bad base64,
// undecodable base) is a 4xx. The base is rebuilt from its bytes here, not
// read from the base cache: bitlint checks it independently of the port
// model that filled the cache.
func (s *Server) verify(ctx context.Context, body []byte) (any, error) {
	var req VerifyRequest
	_, sp := obs.Start(ctx, "jpgd.decode")
	decoder, err := decodeRequest(body, &req, req.fields())
	sp.SetStr("decoder", decoder)
	sp.End()
	if err != nil {
		return nil, err
	}
	if req.Bitstream == "" {
		return nil, badRequest(fmt.Errorf("bitstream is required"))
	}
	bs, err := decodeBitstream("bitstream", req.Bitstream)
	if err != nil {
		return nil, err
	}

	var rep *bitlint.Report
	if req.Base != "" {
		baseBS, err := decodeBitstream("base", req.Base)
		if err != nil {
			return nil, err
		}
		baseRep, err := bitlint.Verify(baseBS)
		if err != nil {
			return nil, badRequest(fmt.Errorf("base: %w", err))
		}
		if err := baseRep.Err(); err != nil {
			return nil, badRequest(fmt.Errorf("base stream unsafe: %w", err))
		}
		rep, _ = bitlint.VerifyPartial(baseRep.Frames, bs)
	} else if rep, err = bitlint.Verify(bs); err != nil {
		return nil, badRequest(err)
	}

	resp := VerifyResponse{
		Part:          rep.Part.Name,
		OK:            len(rep.Errors()) == 0,
		Packets:       rep.Packets,
		FramesWritten: rep.FramesWritten,
		CRCChecks:     rep.CRCChecks,
		Started:       rep.Started,
	}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, VerifyFinding{
			Code: f.Code, Severity: f.Severity.String(), Offset: f.Offset, Detail: f.Detail,
		})
	}
	return resp, nil
}

// boardWithBase provisions a simulated board holding the base configuration
// — the device state a partial reconfiguration assumes.
func (s *Server) boardWithBase(ctx context.Context, part *device.Part, baseBS []byte) (*xhwif.Board, error) {
	board := xhwif.NewBoard(part)
	if _, err := board.DownloadCtx(ctx, baseBS); err != nil {
		return nil, fmt.Errorf("configuring board with base: %w", err)
	}
	return board, nil
}

// wrapBoard layers fault injection and the reliability wrapper per the
// request's download options.
func wrapBoard(board *xhwif.Board, d *DownloadRequest) (xhwif.HWIF, error) {
	var hwif xhwif.HWIF = board
	if d.Faults != "" {
		spec, err := faults.Parse(d.Faults)
		if err != nil {
			return nil, err
		}
		hwif = faults.Wrap(hwif, spec)
	}
	return xhwif.NewReliable(hwif, xhwif.RetryPolicy{
		MaxAttempts: d.Retries,
		Timeout:     time.Duration(d.TimeoutMS) * time.Millisecond,
		Verify:      d.Verify,
	}), nil
}

// BuildRequest is the /v1/build body: run the CAD flow server-side. The
// base design is described by instance specs (designs.ParseInstanceSpecs
// syntax, e.g. "u1/=counter:bits=6;u2/=sbox:n=8,seed=3"); an optional
// variant re-implements one instance (paper Phase 2) and generates its
// partial bitstream against the freshly built base.
type BuildRequest struct {
	Part      string          `json:"part"`
	Instances string          `json:"instances"`
	Seed      int64           `json:"seed,omitempty"`
	Variant   *VariantRequest `json:"variant,omitempty"`
}

// VariantRequest names one Phase 2 re-implementation.
type VariantRequest struct {
	Prefix   string `json:"prefix"`
	Gen      string `json:"gen"`
	Seed     int64  `json:"seed,omitempty"`
	Strict   bool   `json:"strict,omitempty"`
	Compress bool   `json:"compress,omitempty"`
	Delta    bool   `json:"delta,omitempty"`
}

// VariantResult reports the variant build and its partial bitstream.
type VariantResult struct {
	Bitstream     []byte `json:"bitstream"`
	Bytes         int    `json:"bytes"`
	Frames        int    `json:"frames"`
	FramesChanged int    `json:"frames_changed"`
	Region        string `json:"region"`
}

// BuildResponse is the /v1/build result. As with GenerateResponse, the
// correlation ID lives in the X-Request-ID header only, and stage times go
// to the stage spans (and their log lines) and flow.<stage>_ns, so a cached
// or coalesced body is byte-identical to a fresh one.
type BuildResponse struct {
	Part      string            `json:"part"`
	BaseBytes int               `json:"base_bytes"`
	Regions   map[string]string `json:"regions"`
	Variant   *VariantResult    `json:"variant,omitempty"`
}

// build is the /v1/build endpoint: the CAD flow run server-side.
func (s *Server) build(ctx context.Context, body []byte) (any, error) {
	var req BuildRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	part, err := device.ByName(req.Part)
	if err != nil {
		return nil, badRequest(err)
	}
	insts, err := designs.ParseInstanceSpecs(req.Instances)
	if err != nil {
		return nil, badRequest(err)
	}
	base, err := flow.BuildBase(ctx, part, insts, flow.Options{Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	resp := BuildResponse{
		Part:      part.Name,
		BaseBytes: len(base.Bitstream),
		Regions:   map[string]string{},
	}
	for prefix, rg := range base.Regions {
		resp.Regions[prefix] = rg.String()
	}
	if v := req.Variant; v != nil {
		gen, err := designs.ParseSpec(v.Gen)
		if err != nil {
			return nil, badRequest(err)
		}
		va, err := flow.BuildVariant(ctx, base, v.Prefix, gen, flow.Options{Seed: v.Seed})
		if err != nil {
			return nil, err
		}
		proj, err := core.NewProject(base.Bitstream)
		if err != nil {
			return nil, err
		}
		m, err := proj.AddModule(v.Prefix+gen.Name(), va.XDL, va.UCF)
		if err != nil {
			return nil, err
		}
		res, err := proj.GeneratePartialCtx(ctx, m, core.GenerateOptions{
			Strict: v.Strict, Compress: v.Compress, Delta: v.Delta,
		})
		if err != nil {
			return nil, err
		}
		resp.Variant = &VariantResult{
			Bitstream:     res.Bitstream,
			Bytes:         len(res.Bitstream),
			Frames:        len(res.FARs),
			FramesChanged: res.FramesChanged,
			Region:        res.Region.String(),
		}
	}
	s.mBuilds.Inc()
	return resp, nil
}

// ListenAndServe runs the daemon on addr until ctx is cancelled, then
// drains gracefully: readiness flips to 503, DrainDelay passes (load
// balancers stop routing), new API requests are shed, and every request
// already in the pipeline — executing, queued for admission, or waiting as
// a coalesced follower — gets shutdownTimeout to finish. The returned
// error is nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	lctx := jpglog.Attach(context.Background(), s.cfg.Logger)
	jpglog.Info(lctx, "jpgd.listening", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.SetReady(false)
	jpglog.Info(lctx, "jpgd.draining", "delay_ms", s.cfg.DrainDelay.Milliseconds())
	if s.cfg.DrainDelay > 0 {
		time.Sleep(s.cfg.DrainDelay)
	}
	// Shed new arrivals, then wait for the whole pipeline — not just the
	// handlers the HTTP server sees as active, but also requests queued for
	// admission and coalesced followers waiting on a leader's flight.
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	drainErr := s.Drain(sctx)
	if drainErr != nil {
		jpglog.Warn(lctx, "jpgd.drain_incomplete", "error", drainErr.Error())
	}
	err := srv.Shutdown(sctx)
	<-errc // srv.Serve has returned http.ErrServerClosed
	jpglog.Info(lctx, "jpgd.stopped")
	if err == nil {
		err = drainErr
	}
	return err
}
