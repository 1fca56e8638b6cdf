package jpgd

// White-box pins for the hot-artifact path: the deliver fast path must stay
// allocation-flat (no body-sized copies per request), and the byte-bounded
// LRU must evict strictly from the cold tail. BenchmarkHotArtifactRequest is
// the allocs-per-op benchmark the serving satellite pins against.

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
)

type nullResponseWriter struct{ hdr http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.hdr }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestDeliverAllocsFlat pins deliver to header-only allocations: the body is
// written from the shared artifact slice, never copied, so allocs/op stays a
// small constant regardless of body size.
func TestDeliverAllocsFlat(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	art := &artifact{
		status: http.StatusOK,
		etag:   `"deadbeef"`,
		body:   make([]byte, 256<<10),
	}
	w := &nullResponseWriter{hdr: make(http.Header)}
	r := httptest.NewRequest("POST", "/v1/generate", nil)

	allocs := testing.AllocsPerRun(200, func() {
		s.deliver(w, r, art, "hit")
	})
	// Header.Set allocates one []string per header plus the Itoa string;
	// anything above ~8 means a body copy or encoder snuck back in.
	if allocs > 8 {
		t.Fatalf("deliver allocates %.1f objects/op for a 256KB body, want <= 8", allocs)
	}
}

// TestDeliverRetryAfter pins Retry-After to the answer, not the path: a
// 429 or 503 artifact carries it however it is delivered, so a coalesced
// follower sharing a leader's deadline failure gets the header too, and
// other failures do not.
func TestDeliverRetryAfter(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	r := httptest.NewRequest("POST", "/v1/build", nil)
	for _, tc := range []struct {
		status int
		want   string
	}{
		{http.StatusServiceUnavailable, "1"},
		{http.StatusTooManyRequests, "1"},
		{http.StatusInternalServerError, ""},
		{http.StatusBadRequest, ""},
	} {
		w := httptest.NewRecorder()
		status, _ := s.deliver(w, r, &artifact{status: tc.status, body: []byte(`{"error":"x"}`)}, "coalesced")
		if status != tc.status || w.Code != tc.status {
			t.Fatalf("status %d delivered as %d (reported %d)", tc.status, w.Code, status)
		}
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Fatalf("status %d: Retry-After %q, want %q", tc.status, got, tc.want)
		}
	}
}

func TestArtifactCacheEvictsFromTail(t *testing.T) {
	reg := obs.NewRegistry()
	// Budget fits two entries (body + artOverhead accounting) but not three.
	c := newArtifactCache(2*(1024+artOverhead), reg)
	mk := func(name string) (k cache.Key) { copy(k[:], name); return }
	body := make([]byte, 1024)

	c.put(mk("a"), &artifact{status: 200, body: body})
	c.put(mk("b"), &artifact{status: 200, body: body})
	// Touch "a" so "b" is the LRU tail when "c" forces an eviction.
	if _, ok := c.get(mk("a")); !ok {
		t.Fatal("artifact a missing before eviction")
	}
	c.put(mk("c"), &artifact{status: 200, body: body})

	if _, ok := c.get(mk("b")); ok {
		t.Fatal("LRU tail b survived eviction")
	}
	for _, want := range []string{"a", "c"} {
		if _, ok := c.get(mk(want)); !ok {
			t.Fatalf("artifact %s evicted, want only the tail dropped", want)
		}
	}
	if ev := reg.GetCounter("jpgd.artifact.evict").Value(); ev != 1 {
		t.Fatalf("jpgd.artifact.evict = %d, want 1", ev)
	}
}

// TestBaseCacheEvictsColdestBase fills a base cache sized for two decoded
// bases with three, touching the first, so the second is the one evicted.
func TestBaseCacheEvictsColdestBase(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	part := device.MustByName("XCV50")
	var b64 []string
	for i := uint32(1); i <= 3; i++ {
		mem := frames.New(part)
		mem.Frame(part.FirstFAR())[0] = i
		b64 = append(b64, base64.StdEncoding.EncodeToString(bitstream.WriteFull(mem)))
	}
	load := func(i int, wantHit bool) {
		t.Helper()
		e, hit, err := s.loadBase([]byte(b64[i]))
		if err != nil {
			t.Fatalf("base %d: %v", i, err)
		}
		if hit != wantHit {
			t.Fatalf("base %d: hit %v, want %v", i, hit, wantHit)
		}
		if got := e.mem.Frame(part.FirstFAR())[0]; got != uint32(i+1) {
			t.Fatalf("base %d decoded to a memory whose first word is %d", i, got)
		}
	}
	load(0, false)
	s.bases.maxBytes = 2 * s.bases.bytes // room for two bases of this size
	load(1, false)
	load(0, true)
	load(2, false)
	if ev := reg.GetCounter("jpgd.base.evict").Value(); ev != 1 {
		t.Fatalf("jpgd.base.evict = %d, want 1", ev)
	}
	load(0, true)
	load(2, true)
	load(1, false)
	text := []byte(b64[1])
	if n := testing.AllocsPerRun(10, func() { s.loadBase(text) }); n != 0 {
		t.Fatalf("a base-cache hit allocates %v times", n)
	}
}

func TestPipelineDefaults(t *testing.T) {
	p := newPipeline(ServeOptions{}, obs.NewRegistry())
	if p.opts.MaxInflight < 8 {
		t.Fatalf("default MaxInflight = %d, want >= 8", p.opts.MaxInflight)
	}
	if p.opts.Queue != 4*p.opts.MaxInflight {
		t.Fatalf("default Queue = %d, want 4x MaxInflight", p.opts.Queue)
	}
	if p.artifacts == nil {
		t.Fatal("artifact cache disabled by default")
	}
	if p.opts.ArtifactCacheBytes != 64<<20 {
		t.Fatalf("default artifact budget = %d, want 64MB", p.opts.ArtifactCacheBytes)
	}

	off := newPipeline(ServeOptions{Queue: -1, ArtifactCacheBytes: -1}, obs.NewRegistry())
	if off.opts.Queue != 0 {
		t.Fatalf("Queue=-1 normalised to %d, want 0 (no waiting)", off.opts.Queue)
	}
	if off.artifacts != nil {
		t.Fatal("ArtifactCacheBytes=-1 did not disable the cache")
	}
}

// BenchmarkHotArtifactRequest measures the full handler path for a
// hot-artifact request — middleware, body read, keying, cache lookup,
// deliver — with the artifact pre-seeded so no flow executes. This is the
// allocs-per-op pin for the zero-rebuild serving path: run with -benchmem
// and compare B/op against the body size (it must be far below it).
func BenchmarkHotArtifactRequest(b *testing.B) {
	s := New(Config{Registry: obs.NewRegistry()})
	h := s.Handler()

	body := bytes.Repeat([]byte("x"), 128<<10)
	key := requestKey("generate", body)
	s.pipe.artifacts.put(key, &artifact{
		status: http.StatusOK,
		etag:   `"` + key.String()[:32] + `"`,
		body:   bytes.Repeat([]byte("y"), 128<<10),
	})

	w := &nullResponseWriter{hdr: make(http.Header)}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/generate", nil)

	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		h.ServeHTTP(w, req)
	}
}
