package flow

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bitgen"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/ucf"
)

// fuzzVariant is the design FuzzBindNCD binds onto: a real Phase 2 variant,
// with its routed NCD and the NCD of its placement.
func fuzzVariant(tb testing.TB) (p *device.Part, nl *netlist.Design, routed, placed []byte) {
	tb.Helper()
	ctx := context.Background()
	p = device.MustByName("XCV50")
	base, err := BuildBase(ctx, p, twoInstances(), Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{Seed: 2}
	v, err := BuildVariant(ctx, base, "u1/", designs.LFSR{Bits: 6}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := ucf.Parse(v.UCF)
	if err != nil {
		tb.Fatal(err)
	}
	pd, err := place.PlaceCtx(ctx, p, v.Netlist, opts.placeOptions(cons))
	if err != nil {
		tb.Fatal(err)
	}
	if placed, err = ncd.Marshal(pd); err != nil {
		tb.Fatal(err)
	}
	return p, v.Netlist, ncdOf(tb, v), placed
}

// checkBind is FuzzBindNCD's property: bindNCD — the decode path of every
// cached placement and routing (ncd.UnmarshalFlat, then phys.Bind) — either
// rejects data or yields a design the runner can carry on with: it
// re-encodes to NCD that binds back to the same encoding, and bitgen
// accepts or rejects it without panicking.
func checkBind(t *testing.T, p *device.Part, nl *netlist.Design, data []byte) {
	pd, err := bindNCD(data, p, nl)
	if err != nil {
		return
	}
	enc, err := ncd.Marshal(pd)
	if err != nil {
		t.Fatalf("bound design does not re-encode: %v", err)
	}
	pd2, err := bindNCD(enc, p, nl)
	if err != nil {
		t.Fatalf("re-encoded design does not bind: %v", err)
	}
	if enc2, err := ncd.Marshal(pd2); err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding is not stable (err %v)", err)
	}
	_, _ = bitgen.FullBitstream(pd) // may reject the design, must not panic
}

func FuzzBindNCD(f *testing.F) {
	p, nl, routed, placed := fuzzVariant(f)
	f.Add(routed)
	f.Add(placed)
	f.Add(routed[:len(routed)/2])
	f.Add(routed[:8])
	f.Add([]byte{})
	// Well-formed NCD with inconsistent content: a duplicated cell, two
	// nets' PIPs swapped, a clock net on a global buffer that does not exist.
	for _, mutate := range []func(fl *phys.Flat){
		func(fl *phys.Flat) { fl.Cells[1] = fl.Cells[0] },
		func(fl *phys.Flat) {
			var routedNets []int
			for i, n := range fl.Nets {
				if len(n.PIPs) > 0 {
					routedNets = append(routedNets, i)
				}
			}
			a, b := &fl.Nets[routedNets[0]], &fl.Nets[routedNets[1]]
			a.PIPs, b.PIPs = b.PIPs, a.PIPs
		},
		func(fl *phys.Flat) { fl.Nets[0].Global = 99 },
	} {
		fl, err := ncd.UnmarshalFlat(routed)
		if err != nil {
			f.Fatal(err)
		}
		mutate(fl)
		data, err := ncd.MarshalFlat(fl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBind(t, p, nl, data)
	})
}
