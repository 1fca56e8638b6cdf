package timing

import (
	"context"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/ucf"
)

func routed(t *testing.T, gen designs.Generator, cons *ucf.Constraints, seed int64) *phys.Design {
	t.Helper()
	nl, err := designs.Standalone(gen, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: seed, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeCounter(t *testing.T) {
	d := routed(t, designs.Counter{Bits: 8}, nil, 1)
	a, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if a.CriticalNs <= DelayFFClkQ+DelayLUT+DelayFFSetup {
		t.Fatalf("critical path %.2f ns implausibly short", a.CriticalNs)
	}
	if a.FMaxMHz <= 0 || a.FMaxMHz > 2000 {
		t.Fatalf("fmax %.1f MHz implausible", a.FMaxMHz)
	}
	if a.Endpoints == 0 {
		t.Fatal("no endpoints timed")
	}
	if len(a.Critical) < 2 {
		t.Fatalf("critical path report too short: %v", a.Critical)
	}
	rep := a.Report()
	if !strings.Contains(rep, "fmax") {
		t.Fatalf("report incomplete:\n%s", rep)
	}
	// Arrival times along the reported path must be non-decreasing.
	for i := 1; i < len(a.Critical); i++ {
		if a.Critical[i].Arrival < a.Critical[i-1].Arrival {
			t.Fatalf("critical path arrivals not monotone: %v", a.Critical)
		}
	}
}

func TestNetDelaysPositive(t *testing.T) {
	d := routed(t, designs.RippleAdder{Bits: 4}, nil, 2)
	a, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range a.NetDelays {
		if len(d.Routes[n].PIPs) > 0 && v <= 0 {
			t.Fatalf("routed net %q has non-positive delay %f", n.Name, v)
		}
	}
}

// timeInverter places a single registered inverter at the given tile, with
// its pads pinned near the top-left corner, and returns the critical path.
func timeInverter(t *testing.T, row, col int) float64 {
	t.Helper()
	nl, err := designs.Standalone(designs.LFSR{Bits: 2, Taps: []int{1}}, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.NetLocs["clk"] = "P_L1"
	cons.NetLocs["out0"] = "P_T1"
	cons.NetLocs["out1"] = "P_T2"
	cons.AddGroup("u1/*", "AG", frames.Region{R1: row, C1: col, R2: row + 1, C2: col + 1})
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 4, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	return a.CriticalNs
}

func TestPlacementDistanceShowsInTiming(t *testing.T) {
	// The same module placed next to its pads vs at the far corner of the
	// device: timing must reflect the longer interconnect.
	near := timeInverter(t, 0, 0)
	far := timeInverter(t, 13, 21)
	if far <= near {
		t.Fatalf("far placement (%.2f ns) not slower than near placement (%.2f ns)", far, near)
	}
}

func TestAnalyzeRejectsUnrouted(t *testing.T) {
	nl, err := designs.Standalone(designs.Counter{Bits: 3}, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d); err == nil {
		t.Fatal("unrouted design timed")
	}
}
