package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

// TestGeneratePartialCached pins the project-level memoization contract:
// with a cache attached, regenerating the same module yields byte-identical
// results to the uncached path and hits on the second call.
func TestGeneratePartialCached(t *testing.T) {
	base, variant := setup(t)

	plainProj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := plainProj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainProj.GeneratePartial(pm, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	proj.Cache = cache.New(cache.Options{NoDisk: true})
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, run := range []struct {
		name string
		res  *Result
	}{{"cold", cold}, {"warm", warm}} {
		if !bytes.Equal(run.res.Bitstream, plain.Bitstream) {
			t.Errorf("%s cached partial differs from uncached", run.name)
		}
		if len(run.res.FARs) != len(plain.FARs) || run.res.FramesChanged != plain.FramesChanged {
			t.Errorf("%s cached result metadata differs: %d/%d FARs, %d/%d changed",
				run.name, len(run.res.FARs), len(plain.FARs), run.res.FramesChanged, plain.FramesChanged)
		}
		if run.res.Region != plain.Region {
			t.Errorf("%s cached region %v, want %v", run.name, run.res.Region, plain.Region)
		}
	}
	st := proj.Cache.Stats()
	if s := st.Stages["partial"]; s.Hits != 1 || s.Misses != 1 {
		t.Errorf("partial stage stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestGeneratePartialCacheRespectsOptions verifies options are part of the
// key: strict/compress variants must not share entries.
func TestGeneratePartialCacheRespectsOptions(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	proj.Cache = cache.New(cache.Options{NoDisk: true})
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compRes, err := proj.GeneratePartial(m, GenerateOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plainRes.Bitstream, compRes.Bitstream) {
		t.Fatal("compressed and plain partials shared a cache entry")
	}
}

// TestWriteBackInvalidatesCache: a write-back mutates the base state, so a
// subsequent generation of the same module must not reuse the pre-write-back
// entry (the base fingerprint chain advances).
func TestWriteBackInvalidatesCache(t *testing.T) {
	base, variant := setup(t)

	// Uncached reference: generate, write back, generate again.
	ref, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ref.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.GeneratePartial(rm, GenerateOptions{WriteBack: true}); err != nil {
		t.Fatal(err)
	}
	refAfter, err := ref.GeneratePartial(rm, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	proj.Cache = cache.New(cache.Options{NoDisk: true})
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	before, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.GeneratePartial(m, GenerateOptions{WriteBack: true}); err != nil {
		t.Fatal(err)
	}
	after, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bitstream, refAfter.Bitstream) {
		t.Fatal("cached post-write-back partial differs from uncached reference")
	}
	// Against the rewritten base the module is already resident, so the
	// partial carries no changed frames — reusing the pre-write-back entry
	// would wrongly report changes.
	if after.FramesChanged != refAfter.FramesChanged {
		t.Fatalf("FramesChanged = %d, want %d", after.FramesChanged, refAfter.FramesChanged)
	}
	if before.FramesChanged == 0 {
		t.Fatal("sanity: the first partial should change frames")
	}
}

// TestUnusablePartialEntryRecomputes plants an undecodable entry — a valid
// disk container around a payload that is no encoded result — under a
// module's real partial key. Generation must drop it and generate directly,
// byte-identical to the uncached result, and the entry must not be served
// again.
func TestUnusablePartialEntryRecomputes(t *testing.T) {
	base, variant := setup(t)
	generate := func(c *cache.Cache) *Result {
		t.Helper()
		proj, err := NewProject(base.Bitstream)
		if err != nil {
			t.Fatal(err)
		}
		proj.Cache = c
		m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proj.GeneratePartial(m, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := generate(nil)

	// A disk-backed run stores the real entry; its file name is its key.
	dir := t.TempDir()
	generate(cache.New(cache.Options{Dir: dir}))
	paths, err := filepath.Glob(filepath.Join(dir, "partial", "*", "*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one partial entry on disk, got %v (%v)", paths, err)
	}
	raw, err := hex.DecodeString(filepath.Base(paths[0]))
	if err != nil {
		t.Fatal(err)
	}
	var k cache.Key
	copy(k[:], raw)
	garbage := []byte("not an encoded partial result")
	seed := cache.New(cache.Options{Dir: dir})
	seed.Remove("partial", k)
	seed.GetOrCompute(context.Background(), "partial", k, func() ([]byte, error) { return garbage, nil })

	c := cache.New(cache.Options{Dir: dir})
	got := generate(c)
	if !bytes.Equal(got.Bitstream, plain.Bitstream) || len(got.FARs) != len(plain.FARs) ||
		got.FramesChanged != plain.FramesChanged || got.Region != plain.Region {
		t.Error("partial generated past an undecodable entry differs from the uncached one")
	}
	if s := c.Stats().Stages["partial"]; s.Hits != 1 {
		t.Errorf("partial stage stats %+v: the planted entry was not looked up", s)
	}
	for _, probe := range []*cache.Cache{c, cache.New(cache.Options{Dir: dir})} {
		v, _, _ := probe.GetOrCompute(context.Background(), "partial", k, func() ([]byte, error) { return nil, nil })
		if bytes.Equal(v, garbage) {
			t.Error("the undecodable partial entry is still served")
		}
	}
}
