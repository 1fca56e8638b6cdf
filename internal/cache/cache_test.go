package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(s string) Key {
	h := NewHasher("test")
	h.Str("k", s)
	return h.Sum()
}

func TestHasherLabelledFieldsCannotAlias(t *testing.T) {
	// (a="bc") vs (ab="c"): same concatenated bytes, different fields.
	h1 := NewHasher("d")
	h1.Str("a", "bc")
	h2 := NewHasher("d")
	h2.Str("ab", "c")
	if h1.Sum() == h2.Sum() {
		t.Fatal("field boundaries alias")
	}
	// Different domains separate identical fields.
	h3 := NewHasher("d1")
	h3.Str("a", "b")
	h4 := NewHasher("d2")
	h4.Str("a", "b")
	if h3.Sum() == h4.Sum() {
		t.Fatal("domains do not separate key spaces")
	}
	// Same inputs, same key.
	h5 := NewHasher("d")
	h5.Str("a", "bc")
	if h1.Sum() != h5.Sum() {
		t.Fatal("hasher not deterministic")
	}
}

func TestHasherFieldKinds(t *testing.T) {
	mk := func(build func(h *Hasher)) Key {
		h := NewHasher("kinds")
		build(h)
		return h.Sum()
	}
	keys := []Key{
		mk(func(h *Hasher) { h.Int("v", 1) }),
		mk(func(h *Hasher) { h.Int("v", 2) }),
		mk(func(h *Hasher) { h.Float("v", 1) }),
		mk(func(h *Hasher) { h.Bool("v", true) }),
		mk(func(h *Hasher) { h.Bool("v", false) }),
		mk(func(h *Hasher) { h.Bytes("v", []byte{9, 9}) }),
		mk(func(h *Hasher) { h.Key("v", key("x")) }),
	}
	seen := map[Key]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Fatalf("key %d collides with key %d", i, j)
		}
		seen[k] = i
	}
}

func TestGetOrComputeMemoizes(t *testing.T) {
	c := New(Options{})
	calls := 0
	compute := func() ([]byte, error) {
		calls++
		return []byte("value"), nil
	}
	v, hit, err := c.GetOrCompute(context.Background(), "s", key("a"), compute)
	if err != nil || hit || string(v) != "value" {
		t.Fatalf("first call: v=%q hit=%v err=%v", v, hit, err)
	}
	// Mutating the returned slice must not poison the store.
	v[0] = 'X'
	v2, hit, err := c.GetOrCompute(context.Background(), "s", key("a"), compute)
	if err != nil || !hit || string(v2) != "value" {
		t.Fatalf("second call: v=%q hit=%v err=%v", v2, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Stages["s"].Hits != 1 || st.Stages["s"].Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrComputeErrorNotStored(t *testing.T) {
	c := New(Options{})
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("after error: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	put := func(s string) {
		c.GetOrCompute(context.Background(), "s", key(s), func() ([]byte, error) { return []byte(s), nil })
	}
	put("a")
	put("b")
	// Touch "a" so "b" is the LRU victim.
	if _, hit, _ := c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return []byte("a"), nil }); !hit {
		t.Fatal("a evicted early")
	}
	put("c")
	if _, hit, _ := c.GetOrCompute(context.Background(), "s", key("b"), func() ([]byte, error) { return []byte("b"), nil }); hit {
		t.Fatal("b survived past the entry bound")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(Options{MaxBytes: 100})
	big := bytes.Repeat([]byte("x"), 60)
	c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return big, nil })
	c.GetOrCompute(context.Background(), "s", key("b"), func() ([]byte, error) { return big, nil })
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("resident bytes %d exceed bound", st.Bytes)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSingleFlight pins the dedup contract with a counting stage stub: N
// concurrent workers requesting one missing key run the computation exactly
// once, and every worker gets the value.
func TestSingleFlight(t *testing.T) {
	c := New(Options{})
	var calls atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]string, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "stage", key("shared"), func() ([]byte, error) {
				calls.Add(1)
				<-release // hold the flight open until all workers have piled in
				return []byte("result"), nil
			})
			results[i], errs[i] = string(v), err
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("counting stub ran %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != "result" {
			t.Fatalf("worker %d: v=%q err=%v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Stages["stage"].Misses != 1 {
		t.Fatalf("misses = %d, want 1 (stats %+v)", st.Stages["stage"].Misses, st)
	}
	if st.Stages["stage"].Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Stages["stage"].Hits, workers-1)
	}
}

func TestSingleFlightErrorRetries(t *testing.T) {
	c := New(Options{})
	var calls atomic.Int64
	boom := errors.New("boom")
	release := make(chan struct{})
	const workers = 4
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.GetOrCompute(context.Background(), "s", key("k"), func() ([]byte, error) {
				calls.Add(1)
				<-release
				return nil, boom
			})
			if err != nil {
				errCount.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if errCount.Load() != workers {
		t.Fatalf("%d workers errored, want %d", errCount.Load(), workers)
	}
	// Waiters retry after a failed flight, so the stub may run up to
	// `workers` times, but never more.
	if n := calls.Load(); n < 1 || n > workers {
		t.Fatalf("stub ran %d times", n)
	}
}

func TestGetOrComputeValue(t *testing.T) {
	c := New(Options{})
	type obj struct{ n int }
	calls := 0
	get := func() (any, bool, error) {
		return c.GetOrComputeValue(context.Background(), "map", key("o"), func() (any, int64, error) {
			calls++
			return &obj{n: 42}, 100, nil
		})
	}
	v1, hit1, err1 := get()
	v2, hit2, err2 := get()
	if err1 != nil || err2 != nil || hit1 || !hit2 {
		t.Fatalf("hits=(%v,%v) errs=(%v,%v)", hit1, hit2, err1, err2)
	}
	if v1 != v2 {
		t.Fatal("object entries must be shared, not copied")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
}

func TestRemove(t *testing.T) {
	c := New(Options{})
	c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return []byte("v"), nil })
	c.Remove("s", key("a"))
	_, hit, _ := c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return []byte("v"), nil })
	if hit {
		t.Fatal("entry survived Remove")
	}
}

func TestNilCacheDegradesToCompute(t *testing.T) {
	var c *Cache
	v, hit, err := c.GetOrCompute(context.Background(), "s", key("a"), func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || hit || string(v) != "v" {
		t.Fatalf("nil GetOrCompute: v=%q hit=%v err=%v", v, hit, err)
	}
	o, hit, err := c.GetOrComputeValue(context.Background(), "s", key("a"), func() (any, int64, error) { return 7, 1, nil })
	if err != nil || hit || o != 7 {
		t.Fatalf("nil GetOrComputeValue: o=%v hit=%v err=%v", o, hit, err)
	}
	c.Remove("s", key("a"))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c.Dir() != "" {
		t.Fatal("nil Dir")
	}
}

func TestContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context has a cache")
	}
	c := New(Options{})
	ctx := With(context.Background(), c)
	if FromContext(ctx) != c {
		t.Fatal("cache not recovered from context")
	}
	if With(context.Background(), nil) != context.Background() {
		t.Fatal("With(nil) should be a no-op")
	}
}

func TestEnvEnabled(t *testing.T) {
	cases := []struct {
		mode, dir string
		want      bool
	}{
		{"", "", false},
		{"", "/tmp/x", true},
		{"1", "", true},
		{"on", "", true},
		{"mem", "", true},
		{"0", "/tmp/x", false},
		{"off", "/tmp/x", false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("mode=%q dir=%q", tc.mode, tc.dir), func(t *testing.T) {
			t.Setenv(EnvMode, tc.mode)
			t.Setenv(EnvDir, tc.dir)
			if got := EnvEnabled(); got != tc.want {
				t.Fatalf("EnvEnabled() = %v, want %v", got, tc.want)
			}
		})
	}
}
