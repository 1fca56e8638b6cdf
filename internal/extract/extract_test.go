package extract

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitgen"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/xhwif"
)

// buildAndExtract implements a generator, runs it through bitgen, and
// extracts the configured design back out of configuration memory.
func buildAndExtract(t *testing.T, gen designs.Generator, seed int64) (*phys.Design, *Design) {
	t.Helper()
	nl, err := designs.Standalone(gen, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	pd, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), pd, route.Options{}); err != nil {
		t.Fatal(err)
	}
	mem, err := bitgen.Generate(pd)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := FromMemory(mem)
	if err != nil {
		t.Fatal(err)
	}
	return pd, ex
}

// portMap translates original port names to extracted port names (pads).
func portMap(pd *phys.Design) map[string]string {
	m := map[string]string{}
	for port, pad := range pd.Ports {
		m[port.Name] = pad.Name()
	}
	return m
}

// compareBehaviour drives both simulators through the same stimulus and
// compares all outputs every cycle.
func compareBehaviour(t *testing.T, pd *phys.Design, ex *Design, cycles int, stim func(cycle int) map[string]bool) {
	t.Helper()
	s1, err := sim.New(pd.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.New(ex.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	pm := portMap(pd)
	for cyc := 0; cyc < cycles; cyc++ {
		if stim != nil {
			for name, v := range stim(cyc) {
				if err := s1.SetInput(name, v); err != nil {
					t.Fatal(err)
				}
				if err := s2.SetInput(pm[name], v); err != nil {
					t.Fatal(err)
				}
			}
		}
		s1.Step()
		s2.Step()
		for _, port := range pd.Netlist.Ports {
			if port.Dir != netlist.Out {
				continue
			}
			v1, err := s1.Output(port.Name)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := s2.Output(pm[port.Name])
			if err != nil {
				t.Fatal(err)
			}
			if v1 != v2 {
				t.Fatalf("cycle %d: port %q original=%v extracted=%v", cyc, port.Name, v1, v2)
			}
		}
	}
}

func TestExtractCounterBehaviour(t *testing.T) {
	pd, ex := buildAndExtract(t, designs.Counter{Bits: 5}, 1)
	st1, st2 := pd.Netlist.Stats(), ex.Netlist.Stats()
	if st1.LUTs != st2.LUTs || st1.DFFs != st2.DFFs {
		t.Fatalf("extraction changed cell counts: %+v vs %+v", st1, st2)
	}
	compareBehaviour(t, pd, ex, 80, nil)
}

func TestExtractAdderBehaviour(t *testing.T) {
	pd, ex := buildAndExtract(t, designs.RippleAdder{Bits: 3}, 2)
	compareBehaviour(t, pd, ex, 64, func(cyc int) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < 6; i++ {
			m[fmt.Sprintf("in%d", i)] = cyc>>i&1 == 1
		}
		return m
	})
}

func TestExtractStringMatcherBehaviour(t *testing.T) {
	pd, ex := buildAndExtract(t, designs.StringMatcher{Pattern: "ok"}, 3)
	stream := "look ok okok"
	compareBehaviour(t, pd, ex, len(stream), func(cyc int) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < 8; i++ {
			m[fmt.Sprintf("in%d", i)] = stream[cyc]>>i&1 == 1
		}
		return m
	})
}

// TestPartialReconfigFunctional is the reproduction's key correctness
// experiment (paper claim C4): after JPG partially reconfigures a running
// board, the design extracted from the device behaves as the base design
// with the module swapped — the untouched module keeps working and the
// swapped region implements the new module.
func TestPartialReconfigFunctional(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := flow.BuildBase(context.Background(), p, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 6, Seed: 3}},
	}, flow.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6, Taps: []int{5, 2}}, flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	board := xhwif.NewBoard(p)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := proj.GenerateAndDownload(context.Background(), m, board, core.GenerateOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}

	ex, err := FromMemory(board.Readback())
	if err != nil {
		t.Fatal(err)
	}
	exSim, err := sim.New(ex.Netlist)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: software models of the expected post-reconfig behaviour.
	lfsrRef, err := designs.Standalone(designs.LFSR{Bits: 6, Taps: []int{5, 2}}, "ref1", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	lfsrSim, err := sim.New(lfsrRef)
	if err != nil {
		t.Fatal(err)
	}
	sboxRef, err := designs.Standalone(designs.SBoxBank{N: 6, Seed: 3}, "ref2", "u2/")
	if err != nil {
		t.Fatal(err)
	}
	sboxSim, err := sim.New(sboxRef)
	if err != nil {
		t.Fatal(err)
	}

	pads := base.Pads // base port name -> pad name == extracted port name
	for cyc := 0; cyc < 100; cyc++ {
		addr := uint64(cyc % 16)
		for i := 0; i < 4; i++ {
			bit := addr>>i&1 == 1
			if err := exSim.SetInput(pads[fmt.Sprintf("u2_in%d", i)], bit); err != nil {
				t.Fatal(err)
			}
			if err := sboxSim.SetInput(fmt.Sprintf("in%d", i), bit); err != nil {
				t.Fatal(err)
			}
		}
		exSim.Step()
		lfsrSim.Step()
		sboxSim.Step()
		for i := 0; i < 6; i++ {
			got, err := exSim.Output(pads[fmt.Sprintf("u1_out%d", i)])
			if err != nil {
				t.Fatal(err)
			}
			want, err := lfsrSim.Output(fmt.Sprintf("out%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("cycle %d: swapped module u1 bit %d: device=%v reference=%v", cyc, i, got, want)
			}
			got, err = exSim.Output(pads[fmt.Sprintf("u2_out%d", i)])
			if err != nil {
				t.Fatal(err)
			}
			want, err = sboxSim.Output(fmt.Sprintf("out%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("cycle %d: untouched module u2 bit %d: device=%v reference=%v", cyc, i, got, want)
			}
		}
	}
}

func TestExtractEmptyMemory(t *testing.T) {
	mem := xhwif.NewBoard(device.MustByName("XCV50")).Readback()
	ex, err := FromMemory(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Netlist.Cells) != 0 || len(ex.Netlist.Ports) != 0 {
		t.Fatal("blank device extracted non-empty design")
	}
}

// TestExtractCEAndResetPaths covers the full CE/SR path: placement control
// bits, fabric routing to CE/SR pins, bitgen, and extraction.
func TestExtractCEAndResetPaths(t *testing.T) {
	nl := netlist.NewDesign("ce")
	clk, _ := nl.AddPort("clk", netlist.In, nil)
	din, _ := nl.AddPort("d", netlist.In, nil)
	ce, _ := nl.AddPort("ce", netlist.In, nil)
	rst, _ := nl.AddPort("rst", netlist.In, nil)
	ff, err := nl.AddDFF("ff", din.Net, clk.Net, ce.Net, rst.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddPort("q", netlist.Out, ff.Out); err != nil {
		t.Fatal(err)
	}
	p := device.MustByName("XCV50")
	pd, err := place.PlaceCtx(context.Background(), p, nl, place.Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), pd, route.Options{}); err != nil {
		t.Fatal(err)
	}
	mem, err := bitgen.Generate(pd)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := FromMemory(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Both simulators run the same CE/reset scenario.
	s1, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.New(ex.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	pm := portMap(pd)
	type step struct{ d, ce, rst bool }
	script := []step{
		{true, true, false},   // load 1
		{false, false, false}, // hold
		{false, true, true},   // reset
		{true, true, false},   // load again
		{false, false, true},  // reset dominates hold? (reset asserted)
	}
	for i, st := range script {
		for _, kv := range []struct {
			name string
			v    bool
		}{{"d", st.d}, {"ce", st.ce}, {"rst", st.rst}} {
			if err := s1.SetInput(kv.name, kv.v); err != nil {
				t.Fatal(err)
			}
			if err := s2.SetInput(pm[kv.name], kv.v); err != nil {
				t.Fatal(err)
			}
		}
		s1.Step()
		s2.Step()
		v1, _ := s1.Output("q")
		v2, err := s2.Output(pm["q"])
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("step %d (%+v): original=%v extracted=%v", i, st, v1, v2)
		}
	}
}
