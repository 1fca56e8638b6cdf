package jroute

import (
	"context"
	"testing"

	"repro/internal/bitgen"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/extract"
	"repro/internal/frames"
	"repro/internal/jbits"
	"repro/internal/place"
	"repro/internal/route"
)

func TestConnectOnBlankDevice(t *testing.T) {
	p := device.MustByName("XCV50")
	mem := frames.New(p)
	r, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	src := p.TileWireNode(2, 2, device.OutWire(0, device.OutX))
	dst := p.TileWireNode(10, 15, device.InPinWire(1, device.PinG2))
	path, err := r.Connect(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// Path is connected src -> dst and every PIP is on in memory.
	if path[0].Src != src || path[len(path)-1].Dst != dst {
		t.Fatal("path endpoints wrong")
	}
	jbAll := 0
	for i, pip := range path {
		if i > 0 && path[i-1].Dst != pip.Src {
			t.Fatal("path not contiguous")
		}
		if !mem.Bit(p.PIPBit(pip)) {
			t.Fatal("path pip not set in memory")
		}
		jbAll++
	}
	// Second connection to the same destination must fail.
	if _, err := r.Connect(p.TileWireNode(3, 3, device.OutWire(0, device.OutY)), dst); err == nil {
		t.Fatal("double-driven destination accepted")
	}
	// Disconnect frees everything.
	r.Disconnect(path)
	for _, pip := range path {
		if mem.Bit(p.PIPBit(pip)) {
			t.Fatal("disconnect left a pip on")
		}
	}
	if !r.Free(dst) {
		t.Fatal("destination still marked driven after disconnect")
	}
	if _, err := r.Connect(src, dst); err != nil {
		t.Fatalf("reconnect after disconnect failed: %v", err)
	}
}

func TestConnectAvoidsExistingDesign(t *testing.T) {
	// Route a run-time connection on top of a configured design, then
	// verify the device still extracts cleanly with the new wire present
	// as an extra net (single-driver invariants intact).
	nl, err := designs.Standalone(designs.Counter{Bits: 6}, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	p := device.MustByName("XCV50")
	pd, err := place.PlaceCtx(context.Background(), p, nl, place.Options{Seed: 6})
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
	r, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}

	// Connect a counter FF output to a previously unused LUT input pin in a
	// far tile. Pick the output of u1/q0's site.
	q0, _ := nl.Cell("u1/q0")
	site := pd.Cells[q0]
	outPin := device.OutXQ
	if site.LE == 1 {
		outPin = device.OutYQ
	}
	src := p.TileWireNode(site.Row, site.Col, device.OutWire(site.Slice, outPin))
	dst := p.TileWireNode(p.Rows-1, p.Cols-1, device.InPinWire(0, device.PinF1))
	path, err := r.Connect(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	// None of the new pips may collide with the design's routing.
	used := map[device.NodeID]bool{}
	for _, rt := range pd.Routes {
		for _, pip := range rt.PIPs {
			used[pip.Dst] = true
		}
	}
	for _, pip := range path {
		if used[pip.Dst] {
			t.Fatalf("run-time route drives node %s already used by the design", p.NodeName(pip.Dst))
		}
	}

	// The configuration must still extract: to make the new wire a legal
	// net, configure a LUT at the destination so the pin has an owner.
	if err := extractableWithStub(mem, p); err != nil {
		t.Fatal(err)
	}
	_ = path
}

// extractableWithStub adds a LUT at the bottom-right corner (the run-time
// wire's destination) and checks the configuration still extracts.
func extractableWithStub(mem *frames.Memory, p *device.Part) error {
	jb := jbits.New(mem)
	if err := jb.SetLUT(p.Rows-1, p.Cols-1, 0, device.LUTF, 0x5555); err != nil {
		return err
	}
	if err := jb.SetSliceCtl(p.Rows-1, p.Cols-1, 0, device.SliceCtlXMUX, true); err != nil {
		return err
	}
	_, err := extract.FromMemory(mem)
	return err
}

func TestConnectFailsWhenWalledIn(t *testing.T) {
	// Exhaust the destination pin's only mux inputs by driving them, then
	// verify Connect reports failure instead of conflicting.
	p := device.MustByName("XCV50")
	mem := frames.New(p)
	r, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	dst := p.TileWireNode(5, 5, device.InPinWire(0, device.PinF1))
	// Mark every mux source of the pin as driven (simulating a fully
	// congested neighbourhood).
	for _, pip := range p.TilePIPs(5, 5) {
		if pip.Dst == dst {
			r.driven[pip.Src] = true
		}
	}
	src := p.TileWireNode(0, 0, device.OutWire(0, device.OutX))
	if _, err := r.Connect(src, dst); err == nil {
		t.Fatal("walled-in destination reached")
	}
}
