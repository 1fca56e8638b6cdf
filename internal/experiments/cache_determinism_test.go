package experiments

import (
	"context"
	"testing"

	"repro/internal/cache"
)

// The build cache's contract is the same as the worker pool's: it changes
// only wall-clock, never results. These tests run E1 — the experiment whose
// table carries bitstream bytes and byte ratios, the paper's core numbers —
// with the cache disabled, cold, warm, and shared across worker counts, and
// require byte-identical tables after masking measured wall-clock.

func TestE1DeterministicWithCache(t *testing.T) {
	plain, err := E1(context.Background(), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 uncached: %v", err)
	}
	c := cache.New(cache.Options{})
	cold, err := E1(cache.With(context.Background(), c), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 cold cache: %v", err)
	}
	warm, err := E1(cache.With(context.Background(), c), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 warm cache: %v", err)
	}
	ref := maskTimings(plain)
	if got := maskTimings(cold); got != ref {
		t.Fatalf("E1 table differs with a cold cache:\n--- uncached ---\n%s\n--- cold ---\n%s", ref, got)
	}
	if got := maskTimings(warm); got != ref {
		t.Fatalf("E1 table differs with a warm cache:\n--- uncached ---\n%s\n--- warm ---\n%s", ref, got)
	}
	// The warm run must actually have been served by the cache.
	st := c.Stats()
	var hits int64
	for _, s := range st.Stages {
		hits += s.Hits
	}
	if hits == 0 {
		t.Fatalf("warm rerun recorded no cache hits: %+v", st)
	}
}

func TestE1CachedDeterministicAcrossWorkers(t *testing.T) {
	// One cache shared by a serial and a wide run: the wide run is fully
	// warm, and the table must still match the serial one byte for byte.
	c := cache.New(cache.Options{})
	compareAcrossWorkers(t, "E1+cache", func(ctx context.Context, cfg Config) (*Table, error) {
		return E1(cache.With(ctx, c), cfg)
	})
}

func TestE1DeterministicWithDiskCache(t *testing.T) {
	plain, err := E1(context.Background(), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 uncached: %v", err)
	}
	dir := t.TempDir()
	// Two separate cache instances over one directory: the second run warms
	// purely from disk, as a fresh process would.
	first, err := E1(cache.With(context.Background(), cache.New(cache.Options{Dir: dir})), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 disk cold: %v", err)
	}
	c2 := cache.New(cache.Options{Dir: dir})
	second, err := E1(cache.With(context.Background(), c2), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 disk warm: %v", err)
	}
	ref := maskTimings(plain)
	if got := maskTimings(first); got != ref {
		t.Fatalf("E1 table differs with a cold disk cache:\n--- uncached ---\n%s\n--- disk ---\n%s", ref, got)
	}
	if got := maskTimings(second); got != ref {
		t.Fatalf("E1 table differs when warmed from disk:\n--- uncached ---\n%s\n--- disk ---\n%s", ref, got)
	}
	var hits int64
	for _, s := range c2.Stats().Stages {
		hits += s.Hits
	}
	if hits == 0 {
		t.Fatal("fresh cache over a warmed directory recorded no hits")
	}
}
