package flow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/ncd"
	"repro/internal/parallel"
	"repro/internal/phys"
	"repro/internal/ucf"
)

func TestOptionsFingerprint(t *testing.T) {
	base := (Options{Seed: 7}).Fingerprint()
	if (Options{Seed: 7}).Fingerprint() != base {
		t.Fatal("fingerprint not deterministic")
	}
	if (Options{Seed: 8}).Fingerprint() == base {
		t.Fatal("seed not covered")
	}
	// Effort <= 0 normalises to 1.0, exactly as the placer treats it.
	if (Options{Seed: 7, Effort: 1.0}).Fingerprint() != base {
		t.Fatal("default effort and explicit 1.0 must share a key")
	}
	if (Options{Seed: 7, Effort: 0.5}).Fingerprint() == base {
		t.Fatal("effort not covered")
	}
}

func TestOptionsFingerprintGuideOrderIrrelevant(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	guide := GuideFrom(v)
	if len(guide) < 2 {
		t.Fatalf("guide too small to test ordering: %d entries", len(guide))
	}
	o1 := Options{Seed: 1, Guide: guide}
	// A map rebuilt in a different insertion order must fingerprint the same.
	g2 := make(map[string]phys.Site, len(guide))
	keys := make([]string, 0, len(guide))
	for k := range guide {
		keys = append(keys, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		g2[keys[i]] = guide[keys[i]]
	}
	o2 := Options{Seed: 1, Guide: g2}
	if o1.Fingerprint() != o2.Fingerprint() {
		t.Fatal("guide map order changed the fingerprint")
	}
	if (Options{Seed: 1}).Fingerprint() == o1.Fingerprint() {
		t.Fatal("guide not covered")
	}
}

// TestStageKeysGolden pins the cache keys of every flow stage for one fixed
// design. If this test fails, the key derivation changed: bump the affected
// domain version (flow.place/v1, ...) so stale disk entries cannot be
// misread, then refresh these constants. The keys hash only inputs, so a
// change to placement or routing output must also bump flow.place or
// flow.route.
func TestStageKeysGolden(t *testing.T) {
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.Counter{Bits: 4}, "golden", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: 7})
	opts := Options{Seed: 42}

	kPlace := PlaceKey(p, nl, cons, opts)
	kRoute := RouteKey(kPlace, "none")
	kBitgen := BitgenKey(kRoute)
	kXDL := XDLKey(kRoute)

	want := map[string]string{
		"place":  "b89aec49f37ac320c077ca9df1c2fe9b3c755e990ff7edd3ae3ae730c05e3a62",
		"route":  "a273320c0f80fafc83edfe3658f0e855f1cc27c84e7ee440a82c134dfbf49b15",
		"bitgen": "bfea2a53172315ab7fc5a3073e890eba7a641e05e98c261bb276e51f6106b7f0",
		"xdl":    "7d004aac1dc23dd8c2fcfa0053255db88194042048c70d4196087957e095521a",
	}
	got := map[string]string{
		"place":  kPlace.String(),
		"route":  kRoute.String(),
		"bitgen": kBitgen.String(),
		"xdl":    kXDL.String(),
	}
	for stage, w := range want {
		if got[stage] != w {
			t.Errorf("%s key = %q, want %q", stage, got[stage], w)
		}
	}
}

// TestStageOutputsGolden pins what place, route and bitgen produce, where
// TestStageKeysGolden pins only what they are keyed by: the SHA-256 of the
// XDL and the full bitstream for that test's design and seed, and for one
// Figure 4 variant built by BuildVariant. A change that moves these hashes
// changes placement or routing output: bump flow.place or flow.route (see
// cache.go), so no cached entry of the old output is served under the new
// code, and refresh both goldens.
func TestStageOutputsGolden(t *testing.T) {
	ctx := context.Background()
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.Counter{Bits: 4}, "golden", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: 7})
	golden, err := Implement(ctx, p, nl, cons, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildBase(ctx, p, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 11}},
		{Prefix: "u3/", Gen: designs.BinaryFIR{Taps: 8, Coeff: 0xB7}},
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := BuildVariant(ctx, base, "u3/", designs.BinaryFIR{Taps: 8, Coeff: 0x7E}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	want := map[string]string{
		"golden xdl":        "f757ba5886d875144ba87f4f24c0ff12e227c465e081c32df5968c5638db48fe",
		"golden bitstream":  "a6d098d2e4001a9f9f6fa0368f94dea9d4cb67993e3c76b8460b18bd613b4fe1",
		"variant xdl":       "883deb0cd1f81aa8ed56e51fb2613d6813fcd25d8c7f1e5159df73ab131c248f",
		"variant bitstream": "bcfbf82590843f68f894cc9d0e51d39c4c9068b37d00d1eddaafe7e506e278bf",
	}
	got := map[string]string{
		"golden xdl":        hash([]byte(golden.XDL)),
		"golden bitstream":  hash(golden.Bitstream),
		"variant xdl":       hash([]byte(variant.XDL)),
		"variant bitstream": hash(variant.Bitstream),
	}
	for out, w := range want {
		if got[out] != w {
			t.Errorf("%s SHA-256 = %q, want %q", out, got[out], w)
		}
	}
}

// TestCachedBuildByteIdentical is the cache's correctness contract: the same
// build run with no cache, a cold cache, and a warm cache yields
// byte-identical artifacts, and the warm run hits every stage.
func TestCachedBuildByteIdentical(t *testing.T) {
	p := device.MustByName("XCV50")
	opts := Options{Seed: 21}

	plain, err := BuildFull(context.Background(), p, twoInstances(), opts)
	if err != nil {
		t.Fatal(err)
	}

	c := cache.New(cache.Options{})
	ctx := cache.With(context.Background(), c)
	cold, err := BuildFull(ctx, p, twoInstances(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BuildFull(ctx, p, twoInstances(), opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, run := range []struct {
		name string
		a    *Artifacts
	}{{"cold", cold}, {"warm", warm}} {
		if !bytes.Equal(run.a.Bitstream, plain.Bitstream) {
			t.Errorf("%s cache changed the bitstream", run.name)
		}
		if run.a.XDL != plain.XDL {
			t.Errorf("%s cache changed the XDL", run.name)
		}
		if !bytes.Equal(ncdOf(t, run.a), ncdOf(t, plain)) {
			t.Errorf("%s cache changed the NCD", run.name)
		}
		if run.a.UCF != plain.UCF {
			t.Errorf("%s cache changed the UCF", run.name)
		}
	}

	st := c.Stats()
	for _, stage := range []string{"place", "route", "bitgen", "xdl"} {
		s := st.Stages[stage]
		if s.Hits == 0 {
			t.Errorf("stage %q never hit on the warm run (stats %+v)", stage, st)
		}
	}
	// The stage runner looks the place stage up once per run, before route,
	// even when the route entry will hit, so the stage reports the cold
	// run's single miss plus a hit per warm rerun — a 0% place hit rate on a
	// warm cache was the regression this pins down.
	if s := st.Stages["place"]; s.Misses != 1 || s.Hits == 0 {
		t.Errorf("place stage: %+v, want exactly 1 miss and >= 1 hit", s)
	}
}

// TestCachedVariantsMatchSerialAcrossWorkers shares one cache between a
// serial uncached run and pooled cached runs at several worker counts —
// artifacts must be byte-identical throughout.
func TestCachedVariantsMatchSerialAcrossWorkers(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []VariantSpec{
		{Prefix: "u1/", Gen: designs.LFSR{Bits: 6, Taps: []int{5, 0}}, Opts: Options{Seed: 10}},
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}, Opts: Options{Seed: 11}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 7}, Opts: Options{Seed: 12}},
		// Duplicate spec: exercises same-key reuse inside one pooled run.
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 7}, Opts: Options{Seed: 12}},
	}
	serial := make([]*Artifacts, len(specs))
	for i, s := range specs {
		a, err := BuildVariant(context.Background(), base, s.Prefix, s.Gen, s.Opts)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = a
	}
	c := cache.New(cache.Options{})
	ctx := cache.With(context.Background(), c)
	for _, workers := range []int{1, 2, 4} {
		got, err := BuildVariants(ctx, base, specs, parallel.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if !bytes.Equal(serial[i].Bitstream, got[i].Bitstream) {
				t.Fatalf("workers=%d spec %d: bitstream differs from uncached serial build", workers, i)
			}
			if serial[i].XDL != got[i].XDL {
				t.Fatalf("workers=%d spec %d: XDL differs from uncached serial build", workers, i)
			}
		}
	}
	if st := c.Stats(); st.Stages["route"].Hits == 0 {
		t.Errorf("shared cache never hit across pooled runs: %+v", st)
	}
}

// TestCacheDistinguishesBuilds guards against over-broad keys: different
// seeds and different generators must never share artifacts.
func TestCacheDistinguishesBuilds(t *testing.T) {
	p := device.MustByName("XCV50")
	ctx := cache.With(context.Background(), cache.New(cache.Options{}))
	a1, err := BuildFull(ctx, p, twoInstances(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildFull(ctx, p, twoInstances(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a1.Bitstream, a2.Bitstream) {
		t.Fatal("different seeds produced one cached bitstream")
	}
	uncached, err := BuildFull(context.Background(), p, twoInstances(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a2.Bitstream, uncached.Bitstream) {
		t.Fatal("cached seed-2 build differs from uncached seed-2 build")
	}
}

// TestUnusableStageEntriesRecompute plants valid-container disk entries
// holding another design's NCD under a build's real place and route keys,
// and a route entry of the build's own design with two nets' PIPs swapped,
// which binds but fails the route check. The cached build must reject them
// at decode time and recompute, ending byte-identical to the uncached build,
// and the bad entries must not be served again from memory or disk.
func TestUnusableStageEntriesRecompute(t *testing.T) {
	ctx := context.Background()
	p := device.MustByName("XCV50")
	opts := Options{Seed: 13}
	nl, err := designs.Standalone(designs.Counter{Bits: 5}, "victim", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	otherNL, err := designs.Standalone(designs.LFSR{Bits: 5}, "other", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	other, err := Implement(ctx, p, otherNL, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Implement(ctx, p, nl, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	otherNCD := ncdOf(t, other)
	fl, err := ncd.UnmarshalFlat(ncdOf(t, plain))
	if err != nil {
		t.Fatal(err)
	}
	var routedNets []int
	for i, n := range fl.Nets {
		if len(n.PIPs) > 0 {
			routedNets = append(routedNets, i)
		}
	}
	a, b := &fl.Nets[routedNets[0]], &fl.Nets[routedNets[1]]
	a.PIPs, b.PIPs = b.PIPs, a.PIPs
	swappedNCD, err := ncd.MarshalFlat(fl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bindNCD(swappedNCD, p, nl); err != nil {
		t.Fatalf("the swapped routing does not bind: %v", err)
	}
	// Implement without constraints routes unconfined ("none").
	kPlace := PlaceKey(p, nl, nil, opts)
	keys := map[string]cache.Key{"place": kPlace, "route": RouteKey(kPlace, "none")}

	for _, tc := range []struct {
		planted []string
		ncd     []byte
	}{
		{[]string{"place"}, otherNCD},
		{[]string{"route"}, otherNCD},
		{[]string{"place", "route"}, otherNCD},
		{[]string{"route"}, swappedNCD},
	} {
		planted, bad := tc.planted, tc.ncd
		dir := t.TempDir()
		seed := cache.New(cache.Options{Dir: dir})
		for _, stage := range planted {
			seed.GetOrCompute(ctx, stage, keys[stage], func() ([]byte, error) { return bad, nil })
		}
		// A fresh cache over the same directory reads the entries from disk.
		c := cache.New(cache.Options{Dir: dir})
		got, err := Implement(cache.With(ctx, c), p, nl, nil, opts)
		if err != nil {
			t.Fatalf("planted %v: %v", planted, err)
		}
		if !bytes.Equal(got.Bitstream, plain.Bitstream) || got.XDL != plain.XDL || !bytes.Equal(ncdOf(t, got), ncdOf(t, plain)) {
			t.Errorf("planted %v: cached build differs from the uncached one", planted)
		}
		for _, probe := range []*cache.Cache{c, cache.New(cache.Options{Dir: dir})} {
			for _, stage := range planted {
				v, _, _ := probe.GetOrCompute(ctx, stage, keys[stage], func() ([]byte, error) { return nil, nil })
				if bytes.Equal(v, bad) {
					t.Errorf("planted %v: the bad %s entry is still served", planted, stage)
				}
			}
		}
	}
}
