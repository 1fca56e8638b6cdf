package jpgd

// This file is the serving pipeline: every /v1 request takes one path
// through it. An endpoint is a function from the request body to a response
// value or an error; the pipeline owns everything HTTP around it — the POST
// check, the body read, the request key, the three mechanisms below, JSON
// encoding, the error envelope and delivery. Three mechanisms separate
// offered load from endpoint executions:
//
//  1. Hot-artifact cache. The fully-encoded response body of a successful
//     request is kept in a byte-bounded LRU keyed by a content hash of
//     (route, request body). A repeat request is served with a single Write
//     of the shared bytes — no JSON decode, no flow, no per-request body
//     allocation — with a correct Content-Length, a deterministic ETag, and
//     If-None-Match revalidation.
//
//  2. Request coalescing. Concurrent identical requests single-flight on the
//     same key (cache.Group): one leader executes the endpoint, every
//     follower shares the encoded artifact, failures included — except a
//     failure caused by the leader's client hanging up, after which a
//     follower is promoted to execute. N simultaneous requests for the same
//     partial cost one flow execution.
//
//  3. Admission control. Endpoint executions pass a bounded semaphore
//     (parallel.Semaphore): MaxInflight requests run, Queue more wait
//     (context-aware, so deadlines shed waiters), and everything beyond is
//     rejected deterministically with 429/503 + Retry-After instead of
//     piling up goroutines. Cache hits and coalesced followers never consume
//     a slot, so admission bounds real work, not traffic.
//
// Responses on these routes are pure functions of the request body — the
// correlation ID travels only in the X-Request-ID header — so the cold,
// coalesced, and cached paths answer byte-identical bodies.

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Environment variables tuning the serving pipeline (the defaults of
// cmd/jpgd's flags).
const (
	// EnvMaxInflight caps concurrently executing API requests
	// (JPGD_MAX_INFLIGHT; default 4×GOMAXPROCS, minimum 8).
	EnvMaxInflight = "JPGD_MAX_INFLIGHT"
	// EnvQueue caps requests waiting for an execution slot (JPGD_QUEUE;
	// default 4×MaxInflight, 0 disables waiting entirely).
	EnvQueue = "JPGD_QUEUE"
	// EnvArtifactCacheMB sizes the hot-artifact LRU in MiB
	// (JPGD_ARTIFACT_CACHE_MB; default 64, 0 disables it).
	EnvArtifactCacheMB = "JPGD_ARTIFACT_CACHE_MB"
	// EnvCoalesce toggles request coalescing (JPGD_COALESCE; "0"/"off"/
	// "false" disables, anything else leaves it on).
	EnvCoalesce = "JPGD_COALESCE"
	// EnvRequestTimeout bounds each API request end to end
	// (JPGD_REQUEST_TIMEOUT, a Go duration; unset means no deadline).
	EnvRequestTimeout = "JPGD_REQUEST_TIMEOUT"
)

// ServeOptions tunes the throughput pipeline. The zero value selects the
// defaults documented on each field; explicit negatives disable the
// corresponding mechanism.
type ServeOptions struct {
	// MaxInflight caps concurrently executing API requests (admission
	// slots). <= 0 selects 4×GOMAXPROCS with a floor of 8.
	MaxInflight int
	// Queue caps requests waiting for an admission slot. 0 selects
	// 4×MaxInflight; negative disables waiting (full = immediate shed).
	Queue int
	// ArtifactCacheBytes bounds the hot-artifact LRU. 0 selects 64 MiB;
	// negative disables the artifact cache.
	ArtifactCacheBytes int64
	// NoCoalesce disables single-flight request coalescing.
	NoCoalesce bool
	// RequestTimeout bounds each API request end to end via its context
	// (0 = no deadline). Expired requests answer 503 + Retry-After.
	RequestTimeout time.Duration
}

// ServeOptionsFromEnv returns options overridden by the JPGD_* environment
// variables (unparsable values keep the default).
func ServeOptionsFromEnv() ServeOptions {
	var o ServeOptions
	if n, err := strconv.Atoi(os.Getenv(EnvMaxInflight)); err == nil {
		o.MaxInflight = n
	}
	if n, err := strconv.Atoi(os.Getenv(EnvQueue)); err == nil {
		if n == 0 {
			n = -1 // an explicit JPGD_QUEUE=0 means "no waiting"
		}
		o.Queue = n
	}
	if n, err := strconv.Atoi(os.Getenv(EnvArtifactCacheMB)); err == nil {
		if n <= 0 {
			o.ArtifactCacheBytes = -1
		} else {
			o.ArtifactCacheBytes = int64(n) << 20
		}
	}
	switch os.Getenv(EnvCoalesce) {
	case "0", "off", "false":
		o.NoCoalesce = true
	}
	if d, err := time.ParseDuration(os.Getenv(EnvRequestTimeout)); err == nil && d > 0 {
		o.RequestTimeout = d
	}
	return o
}

// pipeline is the serving state assembled from ServeOptions.
type pipeline struct {
	opts      ServeOptions
	sem       *parallel.Semaphore
	flights   cache.Group
	artifacts *lru[cache.Key, *artifact] // nil when disabled
	wg        sync.WaitGroup             // every API request: queued, waiting, executing
	draining  atomic.Bool

	mExec         *obs.Counter
	mCoalLeader   *obs.Counter
	mCoalFollower *obs.Counter
	mShed         *obs.Counter
	mShedQueue    *obs.Counter
	mShedDeadline *obs.Counter
	mShedDraining *obs.Counter
	mAdmitted     *obs.Counter
	mAdmitWaitNS  *obs.Histogram
	mInflightEx   *obs.Gauge
	mQueued       *obs.Gauge
}

func newPipeline(opts ServeOptions, reg *obs.Registry) *pipeline {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * runtime.GOMAXPROCS(0)
		if opts.MaxInflight < 8 {
			opts.MaxInflight = 8
		}
	}
	switch {
	case opts.Queue == 0:
		opts.Queue = 4 * opts.MaxInflight
	case opts.Queue < 0:
		opts.Queue = 0
	}
	if opts.ArtifactCacheBytes == 0 {
		opts.ArtifactCacheBytes = 64 << 20
	}
	p := &pipeline{
		opts: opts,
		sem:  parallel.NewSemaphore(opts.MaxInflight, opts.Queue),

		mExec:         reg.GetCounter("jpgd.exec"),
		mCoalLeader:   reg.GetCounter("jpgd.coalesce.leader"),
		mCoalFollower: reg.GetCounter("jpgd.coalesce.follower"),
		mShed:         reg.GetCounter("jpgd.shed"),
		mShedQueue:    reg.GetCounter("jpgd.shed.queue_full"),
		mShedDeadline: reg.GetCounter("jpgd.shed.deadline"),
		mShedDraining: reg.GetCounter("jpgd.shed.draining"),
		mAdmitted:     reg.GetCounter("jpgd.admitted"),
		mAdmitWaitNS:  reg.GetHistogram("jpgd.admit.wait_ns"),
		mInflightEx:   reg.GetGauge("jpgd.admit.inflight"),
		mQueued:       reg.GetGauge("jpgd.admit.queued"),
	}
	if opts.ArtifactCacheBytes > 0 {
		p.artifacts = newArtifactCache(opts.ArtifactCacheBytes, reg)
	}
	return p
}

// errDraining sheds requests arriving after BeginDrain.
var errDraining = errors.New("server is draining")

// admit takes an execution slot, waiting in the bounded queue under the
// request's context. The queue-depth gauge tracks the wait.
func (p *pipeline) admit(ctx context.Context) error {
	if p.sem.TryAcquire() {
		p.mAdmitted.Inc()
		p.mInflightEx.Set(int64(p.sem.InFlight()))
		return nil
	}
	t0 := time.Now()
	p.mQueued.Set(p.sem.Queued() + 1)
	err := p.sem.Acquire(ctx)
	p.mQueued.Set(p.sem.Queued())
	if err != nil {
		return err
	}
	p.mAdmitWaitNS.Observe(time.Since(t0).Nanoseconds())
	p.mAdmitted.Inc()
	p.mInflightEx.Set(int64(p.sem.InFlight()))
	return nil
}

func (p *pipeline) release() {
	p.sem.Release()
	p.mInflightEx.Set(int64(p.sem.InFlight()))
}

// ServeStats is a point-in-time snapshot of the admission state.
type ServeStats struct {
	Inflight int   `json:"inflight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// ServeStats reports the pipeline's live admission state (held execution
// slots, queued waiters, drain flag).
func (s *Server) ServeStats() ServeStats {
	return ServeStats{
		Inflight: s.pipe.sem.InFlight(),
		Queued:   s.pipe.sem.Queued(),
		Draining: s.pipe.draining.Load(),
	}
}

// BeginDrain flips readiness and starts shedding newly arriving API requests
// with 503 + Retry-After. Requests already in the pipeline — executing,
// queued for admission, or waiting as coalesced followers — are unaffected
// and complete normally; Drain waits for them.
func (s *Server) BeginDrain() {
	s.ready.Store(false)
	s.pipe.draining.Store(true)
}

// Drain blocks until every request in the pipeline (including queued and
// coalesced ones) has been answered, or ctx ends.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.pipe.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// endpoint is one /v1 route: a function from the request body to the value
// the pipeline encodes as the response, or an error. A *statusError answers
// with its own status; any other error answers 500.
type endpoint func(ctx context.Context, body []byte) (any, error)

// statusError is an endpoint failure that carries its HTTP status.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// badRequest marks err as the client's mistake (400).
func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// dispatch runs an instrumented API request through the pipeline — the
// POST check and drain shedding, the body read, the artifact cache, then
// the endpoint under single-flight and admission control — and returns the
// artifact it is answered with and its X-Cache source ("" for a request
// refused before the artifact cache is asked).
func (s *Server) dispatch(route string, r *http.Request, ep endpoint) (*artifact, string) {
	ctx := r.Context()
	p := s.pipe
	if r.Method != http.MethodPost {
		return fail(&statusError{http.StatusMethodNotAllowed, fmt.Errorf("POST required")}), ""
	}
	if p.draining.Load() {
		return s.shed(errDraining), ""
	}
	body, err := readBody(r)
	if err != nil {
		return fail(err), ""
	}
	defer putBuf(body)
	key := requestKey(route, body.Bytes())

	if p.artifacts != nil {
		if art, ok := p.artifacts.get(key); ok {
			return art, "hit"
		}
	}

	exec := func() (any, error) {
		if err := p.admit(ctx); err != nil {
			return nil, err
		}
		defer p.release()
		p.mExec.Inc()
		art := execute(ctx, ep, body.Bytes(), key)
		if art.status == http.StatusOK {
			if p.artifacts != nil {
				p.artifacts.put(key, art)
			}
			return art, nil
		}
		// A failure because this caller's client hung up answers only this
		// caller. Returned as an error, it makes cache.Group promote a
		// waiting follower, which runs the endpoint under its own context.
		// A deadline failure stays shared: followers get its 503.
		if errors.Is(ctx.Err(), context.Canceled) {
			return art, ctx.Err()
		}
		return art, nil
	}

	var (
		v      any
		shared bool
	)
	if p.opts.NoCoalesce {
		v, err = exec()
	} else {
		v, shared, err = p.flights.Do(ctx, key, exec)
	}
	art, ok := v.(*artifact)
	if !ok {
		// This caller either was shed at admission, or its own context
		// ended while waiting on a leader.
		return s.shed(err), ""
	}
	if shared {
		p.mCoalFollower.Inc()
		return art, "coalesced"
	}
	if !p.opts.NoCoalesce {
		p.mCoalLeader.Inc()
	}
	return art, "miss"
}

// execute runs the endpoint and freezes its answer as a shareable artifact:
// the indented JSON of its response, or the error envelope of its failure.
// The response is encoded compactly, HTML escaping included, then indented
// in one pass (indentJSON) to the bytes json.Encoder.SetIndent("", "  ")
// writes, which ETags, byte-identity tests and clients compare. The ETag
// derives from the request key: the body is a pure function of the request,
// so the key identifies the representation.
func execute(ctx context.Context, ep endpoint, body []byte, key cache.Key) *artifact {
	v, err := ep(ctx, body)
	if err != nil {
		return fail(err)
	}
	_, sp := obs.Start(ctx, "jpgd.encode")
	defer sp.End()
	compact, out := getBuf(), getBuf()
	defer putBuf(compact)
	defer putBuf(out)
	if err := json.NewEncoder(compact).Encode(v); err != nil {
		return fail(err)
	}
	indentJSON(out, compact.Bytes())
	return &artifact{
		status: http.StatusOK,
		etag:   `"` + key.String()[:32] + `"`,
		body:   append([]byte(nil), out.Bytes()...), // exact length: the cache keeps it
	}
}

// fail freezes a failed request's answer: the error envelope under the
// status a statusError carries, or 500 (4xx are client mistakes, 5xx are
// failures worth a post-mortem). A 5xx the request's deadline caused
// answers 503 instead: the work was shed, not broken. The artifact keeps
// err for the request span, which records the failure.
func fail(err error) *artifact {
	status := http.StatusInternalServerError
	var se *statusError
	if errors.As(err, &se) {
		status = se.status
	}
	if status >= 500 && errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusServiceUnavailable
	}
	body, _ := json.Marshal(apiError{Error: err.Error()}) // one string field cannot fail to encode
	return &artifact{status: status, body: append(body, '\n'), err: err}
}

// shed answers a request the pipeline refused: 429 for a full queue, 503
// for deadlines and draining. A request whose own client hung up while it
// waited was not refused; it fails like any cancelled request, and
// instrument counts it as client_closed.
func (s *Server) shed(err error) *artifact {
	if errors.Is(err, context.Canceled) {
		return fail(err)
	}
	p := s.pipe
	p.mShed.Inc()
	status := http.StatusServiceUnavailable
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		status = http.StatusTooManyRequests
		p.mShedQueue.Inc()
	case errors.Is(err, errDraining):
		p.mShedDraining.Inc()
	default:
		p.mShedDeadline.Inc()
	}
	return fail(&statusError{status, err})
}

// deliver writes an artifact: one header fill and one body Write, shared
// bytes, no per-request body allocation. src tags the X-Cache header
// ("hit" = artifact cache, "coalesced" = shared flight, "miss" = executed).
// A 429 or 503 — shed or timed out, not broken — carries Retry-After, so
// well-behaved clients back off deterministically; a follower that shared
// such a failure gets the header too. It returns the status and the body
// bytes written, for the request span.
func (s *Server) deliver(w http.ResponseWriter, r *http.Request, art *artifact, src string) (status, n int) {
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	if src != "" {
		hdr.Set("X-Cache", src)
	}
	switch art.status {
	case http.StatusOK:
		hdr.Set("ETag", art.etag)
		if r.Header.Get("If-None-Match") == art.etag {
			w.WriteHeader(http.StatusNotModified)
			return http.StatusNotModified, 0
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		hdr.Set("Retry-After", "1")
	}
	hdr.Set("Content-Length", strconv.Itoa(len(art.body)))
	w.WriteHeader(art.status)
	n, _ = w.Write(art.body) // a client gone mid-write has nothing left to be told
	return art.status, n
}

// requestKey content-addresses a request: same route + byte-identical body
// ⇒ same key. It chains the cache package's labelled hashing, so the key
// space is domain-separated from the flow's stage keys.
func requestKey(route string, body []byte) cache.Key {
	h := cache.NewHasher("jpgd.artifact/v1")
	h.Str("route", route)
	h.Bytes("body", body)
	return h.Sum()
}

// readBody drains the (MaxBytesReader-bounded) request body into a pooled
// buffer, mapping an exceeded bound to 413.
func readBody(r *http.Request) (*bytes.Buffer, error) {
	buf := getBuf()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBuf(buf)
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &statusError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return nil, badRequest(fmt.Errorf("reading request body: %w", err))
	}
	return buf, nil
}

// bufPool recycles pre-sized buffers for request bodies and JSON encoding,
// so the steady-state serving path allocates no body-sized memory per
// request.
var bufPool = sync.Pool{New: func() any {
	b := new(bytes.Buffer)
	b.Grow(64 << 10)
	return b
}}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > 8<<20 {
		return // don't pin pathological buffers in the pool
	}
	b.Reset()
	bufPool.Put(b)
}

// artifact is one fully-encoded JSON response: status, deterministic ETag
// (successes only), the exact body bytes and, for a failure, the error
// behind it. Shared read-only between the leader, its followers, and the
// artifact cache.
type artifact struct {
	status int
	etag   string
	body   []byte
	err    error
}

// artOverhead approximates an artifact's non-body footprint for the byte
// bound.
const artOverhead = 256

// newArtifactCache is the hot-artifact LRU: encoded responses by request
// key, counted in jpgd.artifact.*.
func newArtifactCache(maxBytes int64, reg *obs.Registry) *lru[cache.Key, *artifact] {
	return newLRU(maxBytes, reg, "jpgd.artifact", func(_ cache.Key, a *artifact) int64 {
		return int64(len(a.body)) + artOverhead
	})
}

// lru is jpgd's byte-bounded LRU, the one type behind the artifact cache
// and the base cache. size charges an entry against maxBytes; a put evicts
// from the cold tail until the entries fit, always keeping the newest.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*list.Element
	order    *list.List // front = most recently used
	bytes    int64
	maxBytes int64
	size     func(K, V) int64

	mHit     *obs.Counter
	mMiss    *obs.Counter
	mEvict   *obs.Counter
	mBytes   *obs.Gauge
	mEntries *obs.Gauge
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// newLRU builds an LRU whose metrics are <prefix>.hit, .miss, .evict,
// .bytes and .entries in reg.
func newLRU[K comparable, V any](maxBytes int64, reg *obs.Registry, prefix string, size func(K, V) int64) *lru[K, V] {
	return &lru[K, V]{
		entries:  map[K]*list.Element{},
		order:    list.New(),
		maxBytes: maxBytes,
		size:     size,
		mHit:     reg.GetCounter(prefix + ".hit"),
		mMiss:    reg.GetCounter(prefix + ".miss"),
		mEvict:   reg.GetCounter(prefix + ".evict"),
		mBytes:   reg.GetGauge(prefix + ".bytes"),
		mEntries: reg.GetGauge(prefix + ".entries"),
	}
}

func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	return c.found(el, ok)
}

// getBytes is get on a string-keyed LRU by the key's bytes, which it does
// not copy.
func getBytes[V any](c *lru[string, V], k []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(k)]
	return c.found(el, ok)
}

// found counts a lookup that found el (ok) or nothing, and returns its
// value. The caller holds c.mu.
func (c *lru[K, V]) found(el *list.Element, ok bool) (V, bool) {
	if !ok {
		c.mMiss.Inc()
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	c.mHit.Inc()
	return el.Value.(*lruEntry[K, V]).val, true
}

func (c *lru[K, V]) put(k K, v V) {
	size := c.size(k, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.order.MoveToFront(el)
	} else {
		c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
		c.bytes += size
	}
	for c.order.Len() > 1 && c.bytes > c.maxBytes {
		tail := c.order.Back()
		ev := tail.Value.(*lruEntry[K, V])
		c.order.Remove(tail)
		delete(c.entries, ev.key)
		c.bytes -= ev.size
		c.mEvict.Inc()
	}
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(c.order.Len()))
}
