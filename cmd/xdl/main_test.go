package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xdl"
)

// TestConvertChecksTheDesign holds both directions to the physical design:
// an XDL text Load refuses (a LUT with no inputs, and two LUTs on one site)
// is not converted, and a routed design's XDL goes XDL -> NCD -> XDL
// byte-identical.
func TestConvertChecksTheDesign(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	bad := write("bad.xdl", `design "bad" XCV50 ;
inst "a" "LUT4", placed CLB_R1C1.S0.F, cfg "INIT::0000" ;
inst "b" "LUT4", placed CLB_R1C1.S0.F, cfg "INIT::0000" ;
net "n", outpin "a" X, inpin "b" F1 ;
net "m", outpin "b" X ;
`)
	badNCD := filepath.Join(dir, "bad.ncd")
	err := run([]string{"-xdl2ncd", bad, "-o", badNCD})
	if err == nil || !strings.Contains(err.Error(), `LUT "a" has no inputs bound`) {
		t.Fatalf("-xdl2ncd of an invalid design: %v", err)
	}
	if _, err := os.Stat(badNCD); !os.IsNotExist(err) {
		t.Fatalf("-xdl2ncd wrote %s for an invalid design", badNCD)
	}

	nl, err := designs.Standalone(designs.Counter{Bits: 4}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	text, err := xdl.Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	in, ncdPath, out := write("cnt.xdl", text), filepath.Join(dir, "cnt.ncd"), filepath.Join(dir, "back.xdl")
	if err := run([]string{"-xdl2ncd", in, "-o", ncdPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ncd2xdl", ncdPath, "-o", out}); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != text {
		t.Fatal("XDL -> NCD -> XDL changed the text")
	}
}
