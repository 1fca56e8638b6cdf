package ncd

import (
	"context"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xdl"
)

func routedDesign(t *testing.T) *phys.Design {
	t.Helper()
	nl, err := designs.Standalone(designs.LFSR{Bits: 6}, "lfsr", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTrip(t *testing.T) {
	d := routedDesign(t)
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckRoutes(); err != nil {
		t.Fatal(err)
	}
	// NCD and XDL must describe the identical design: compare via XDL text.
	x1, err := xdl.Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := xdl.Emit(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Fatal("NCD round trip changed the design")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Unmarshal([]byte("not an ncd")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	d := routedDesign(t)
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

func TestTruncated(t *testing.T) {
	d := routedDesign(t)
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data[:len(data)/2]); err == nil {
		t.Fatal("truncated NCD accepted")
	}
}
