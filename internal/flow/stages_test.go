package flow

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/obs"
)

// TestStageBookkeeping pins the stage runner's accounting on every path —
// uncached, cold cache and warm cache: each stage that runs records exactly
// one span and one flow.<stage>_ns sample, entry points without a map step
// (Implement, the incremental rebuild) record no map sample, and a warm run
// does no placement or routing work.
func TestStageBookkeeping(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, prev, sboxOpts := implementSBox(t, 12)
	// A structural edit (two LUT inputs swapped) forces the rebuild path.
	next := prev.Netlist.Clone()
	cell, ok := next.Cell("u1/sbox0")
	if !ok {
		t.Fatal("no cell u1/sbox0")
	}
	cell.Inputs[0], cell.Inputs[1] = cell.Inputs[1], cell.Inputs[0]
	nl, err := designs.Standalone(designs.Counter{Bits: 5}, "bookkeeping", "u1/")
	if err != nil {
		t.Fatal(err)
	}

	builds := []struct {
		name   string
		mapped bool
		run    func(ctx context.Context) error
	}{
		{"variant", true, func(ctx context.Context) error {
			_, err := BuildVariant(ctx, base, "u1/", designs.LFSR{Bits: 6}, Options{Seed: 8})
			return err
		}},
		{"implement", false, func(ctx context.Context) error {
			_, err := Implement(ctx, p, nl, nil, Options{Seed: 9})
			return err
		}},
		{"rebuild", false, func(ctx context.Context) error {
			s, err := NewEditSession(prev, nil, sboxOpts)
			if err != nil {
				return err
			}
			res, err := s.Edit(ctx, next)
			if err == nil && res.Stats.Path != "rebuild" {
				t.Fatalf("structural edit took path %q", res.Stats.Path)
			}
			return err
		}},
	}
	c := cache.New(cache.Options{})
	moves, searches := obs.GetCounter("place.moves_proposed"), obs.GetCounter("route.searches")
	for _, mode := range []struct {
		name  string
		cache *cache.Cache
	}{{"uncached", nil}, {"cold", c}, {"warm", c}} {
		for _, b := range builds {
			col := obs.New()
			ctx := cache.With(col.Attach(context.Background()), mode.cache)
			before := obs.Default.Snapshot().Histograms
			moves0, searches0 := moves.Value(), searches.Value()
			if err := b.run(ctx); err != nil {
				t.Fatalf("%s %s: %v", mode.name, b.name, err)
			}
			after := obs.Default.Snapshot().Histograms

			spans := map[string]int{}
			for _, sp := range col.Spans() {
				spans[sp.Name]++
			}
			for _, st := range []string{"map", "place", "route", "bitgen", "emit"} {
				want := 1
				if st == "map" && !b.mapped {
					want = 0
				}
				hist := "flow." + st + "_ns"
				if got := after[hist].Count - before[hist].Count; got != int64(want) {
					t.Errorf("%s %s: %d %s samples, want %d", mode.name, b.name, got, hist, want)
				}
				if spans[st] != want {
					t.Errorf("%s %s: %d %q spans, want %d", mode.name, b.name, spans[st], st, want)
				}
			}
			if mode.name == "warm" {
				if d := moves.Value() - moves0; d != 0 {
					t.Errorf("warm %s proposed %d placement moves", b.name, d)
				}
				if d := searches.Value() - searches0; d != 0 {
					t.Errorf("warm %s ran %d route searches", b.name, d)
				}
			}
		}
	}
}
