package phys_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/phys"
)

// fig4Insts is the Figure 4 base: one instance per region, each region's
// first variant.
var fig4Insts = []designs.Instance{
	{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
	{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 11}},
	{Prefix: "u3/", Gen: designs.BinaryFIR{Taps: 8, Coeff: 0xB7}},
}

// fig4Base is the routed Figure 4 base on XCV50.
var fig4Base = sync.OnceValues(func() (*flow.BaseBuild, error) {
	return flow.BuildBase(context.Background(), device.MustByName("XCV50"), fig4Insts, flow.Options{Seed: 1})
})

// fig4Variant is one routed Figure 4 variant, the u1 LFSR, built against
// the base. Built once and shared read-only.
var fig4Variant = sync.OnceValues(func() (*phys.Design, error) {
	base, err := fig4Base()
	if err != nil {
		return nil, err
	}
	v, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6, Taps: []int{5, 0}}, flow.Options{Seed: 2})
	if err != nil {
		return nil, err
	}
	return v.Phys, nil
})

func routedVariant(t *testing.T) *phys.Design {
	t.Helper()
	d, err := fig4Variant()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckRoutes(); err != nil {
		t.Fatalf("routed variant fails its route check: %v", err)
	}
	return d
}

// withRoutes copies d with its own Routes map and PIP slices, so a case can
// edit routes without touching the shared design. Cells, ports and the
// netlist stay shared.
func withRoutes(d *phys.Design) *phys.Design {
	c := *d
	c.Routes = make(map[*netlist.Net]*phys.Route, len(d.Routes))
	for n, r := range d.Routes {
		rc := *r
		rc.PIPs = append([]device.PIP(nil), r.PIPs...)
		c.Routes[n] = &rc
	}
	return &c
}

// tree returns the nodes a net's route reaches: its source and every PIP's
// destination.
func tree(t *testing.T, d *phys.Design, n *netlist.Net) map[device.NodeID]bool {
	t.Helper()
	src, err := d.SourceNode(n)
	if err != nil {
		t.Fatal(err)
	}
	in := map[device.NodeID]bool{src: true}
	for _, pip := range d.Routes[n].PIPs {
		in[pip.Dst] = true
	}
	return in
}

// fabricNet returns the first fabric net, in netlist order, with routable
// sinks and a route of at least two PIPs.
func fabricNet(t *testing.T, d *phys.Design) *netlist.Net {
	t.Helper()
	for _, n := range d.Netlist.Nets {
		if n.IsClock || !n.Driven() || d.Routes[n] == nil || len(d.Routes[n].PIPs) < 2 {
			continue
		}
		if sinks, err := d.SinkNodes(n); err == nil && len(sinks) > 0 {
			return n
		}
	}
	t.Fatal("variant has no routed fabric net")
	return nil
}

// foreignPIP returns a PIP of another net whose ends both lie outside n's
// tree: added to n, it is routing n's source never reaches.
func foreignPIP(t *testing.T, d *phys.Design, n *netlist.Net, skip int) device.PIP {
	t.Helper()
	in := tree(t, d, n)
	for _, m := range d.Netlist.Nets {
		r := d.Routes[m]
		if m == n || r == nil {
			continue
		}
		for _, pip := range r.PIPs {
			if in[pip.Src] || in[pip.Dst] {
				continue
			}
			if skip == 0 {
				return pip
			}
			skip--
		}
	}
	t.Fatalf("no PIP outside net %q's tree", n.Name)
	return device.PIP{}
}

// routeCase edits a copy of the routed variant and returns the exact error
// CheckRoutes must report for it.
type routeCase struct {
	name string
	edit func(t *testing.T, d *phys.Design) string
}

var routeCases = []routeCase{
	{"two nets drive one node", func(t *testing.T, d *phys.Design) string {
		// Net b gains a catalog PIP from a node of its own tree into a node
		// net a already drives: b's own tree stays legal, so only the
		// cross-net check can see it.
		g := device.NewGraph(d.Part)
		owner := map[device.NodeID]*netlist.Net{}
		for n, r := range d.Routes {
			for _, pip := range r.PIPs {
				owner[pip.Dst] = n
			}
		}
		for bi, b := range d.Netlist.Nets {
			r := d.Routes[b]
			if b.IsClock || r == nil {
				continue
			}
			in := tree(t, d, b)
			src, _ := d.SourceNode(b)
			nodes := []device.NodeID{src}
			for _, pip := range r.PIPs {
				nodes = append(nodes, pip.Dst)
			}
			for _, v := range nodes {
				for _, pip := range g.From(v) {
					a := owner[pip.Dst]
					if a == nil || a == b || a.IsClock || in[pip.Dst] {
						continue
					}
					r.PIPs = append(r.PIPs, pip)
					first, second := a, b
					if slices.Index(d.Netlist.Nets, a) > bi {
						first, second = b, a
					}
					return fmt.Sprintf("phys: node %s driven by nets %q and %q",
						d.Part.NodeName(pip.Dst), first.Name, second.Name)
				}
			}
		}
		t.Fatal("no node of one net is one PIP away from another net's tree")
		return ""
	}},
	{"one net drives a node twice", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		r := d.Routes[n]
		pip := r.PIPs[0]
		r.PIPs = append(r.PIPs, pip)
		return fmt.Sprintf("phys: net %q drives node %s twice", n.Name, d.Part.NodeName(pip.Dst))
	}},
	{"orphan routing", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		pip := foreignPIP(t, d, n, 0)
		r := d.Routes[n]
		r.PIPs = append(r.PIPs, pip)
		return fmt.Sprintf("phys: net %q has orphan routing at %s", n.Name, d.Part.NodeName(pip.Dst))
	}},
	{"unreached sink", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		sinks, err := d.SinkNodes(n)
		if err != nil {
			t.Fatal(err)
		}
		r := d.Routes[n]
		for k, pip := range r.PIPs {
			if pip.Dst == sinks[0] {
				r.PIPs = append(r.PIPs[:k], r.PIPs[k+1:]...)
				return fmt.Sprintf("phys: net %q does not reach sink %s", n.Name, d.Part.NodeName(sinks[0]))
			}
		}
		t.Fatalf("net %q has no PIP into its first sink", n.Name)
		return ""
	}},
	{"PIP not in the catalog", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		pip := &d.Routes[n].PIPs[0]
		pip.Row = (pip.Row + 1) % d.Part.Rows
		return fmt.Sprintf("phys: net %q uses pip not in catalog (%s -> %s)",
			n.Name, d.Part.NodeName(pip.Src), d.Part.NodeName(pip.Dst))
	}},
	{"PIP with a wrong CatalogIdx", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		pip := &d.Routes[n].PIPs[1]
		pip.CatalogIdx++
		return fmt.Sprintf("phys: net %q uses pip not in catalog (%s -> %s)",
			n.Name, d.Part.NodeName(pip.Src), d.Part.NodeName(pip.Dst))
	}},
	{"routing with no sinks", func(t *testing.T, d *phys.Design) string {
		// A LUT feeding its paired FF needs no routing: its net has no
		// routable sink, so any PIP on it is an error.
		for _, n := range d.Netlist.Nets {
			if n.IsClock || !n.Driven() {
				continue
			}
			if sinks, err := d.SinkNodes(n); err != nil || len(sinks) > 0 {
				continue
			}
			d.Routes[n] = &phys.Route{Net: n, PIPs: []device.PIP{foreignPIP(t, d, fabricNet(t, d), 0)}, Global: -1}
			return fmt.Sprintf("phys: net %q has routing but no sinks", n.Name)
		}
		t.Fatal("variant has no driven net without routable sinks")
		return ""
	}},
	{"unrouted net", func(t *testing.T, d *phys.Design) string {
		n := fabricNet(t, d)
		delete(d.Routes, n)
		return fmt.Sprintf("phys: net %q unrouted", n.Name)
	}},
	{"clock below the global lines", func(t *testing.T, d *phys.Design) string {
		n := clockNet(t, d)
		d.Routes[n].Global = -1
		return fmt.Sprintf("phys: clock net %q not on a global line", n.Name)
	}},
	{"clock above the global lines", func(t *testing.T, d *phys.Design) string {
		n := clockNet(t, d)
		d.Routes[n].Global = device.NumGlobals
		return fmt.Sprintf("phys: clock net %q not on a global line", n.Name)
	}},
}

func clockNet(t *testing.T, d *phys.Design) *netlist.Net {
	t.Helper()
	for _, n := range d.Netlist.Nets {
		if n.IsClock && d.Routes[n] != nil {
			return n
		}
	}
	t.Fatal("variant has no routed clock net")
	return nil
}

// TestCheckRoutesRejections breaks a routed Figure 4 variant once per check
// and requires CheckRoutes to name that exact fault.
func TestCheckRoutesRejections(t *testing.T) {
	d := routedVariant(t)
	for _, tc := range routeCases {
		t.Run(tc.name, func(t *testing.T) {
			bad := withRoutes(d)
			want := tc.edit(t, bad)
			t.Log(want)
			err := bad.CheckRoutes()
			if err == nil {
				t.Fatalf("CheckRoutes accepted the design, want %q", want)
			}
			if err.Error() != want {
				t.Fatalf("CheckRoutes = %q, want %q", err, want)
			}
		})
	}
	// The edits touched copies only.
	if err := d.CheckRoutes(); err != nil {
		t.Fatalf("shared design changed: %v", err)
	}
}

// TestCheckRoutesOrphanInPIPOrder gives a net two orphan PIPs, in both
// orders: the check must name the first in route order each time.
func TestCheckRoutesOrphanInPIPOrder(t *testing.T) {
	d := routedVariant(t)
	n := fabricNet(t, d)
	a, b := foreignPIP(t, d, n, 0), foreignPIP(t, d, n, 1)
	for _, orphans := range [][2]device.PIP{{a, b}, {b, a}} {
		bad := withRoutes(d)
		r := bad.Routes[n]
		r.PIPs = append(r.PIPs, orphans[0], orphans[1])
		want := fmt.Sprintf("phys: net %q has orphan routing at %s", n.Name, d.Part.NodeName(orphans[0].Dst))
		if err := bad.CheckRoutes(); err == nil || err.Error() != want {
			t.Fatalf("CheckRoutes = %v, want %q", err, want)
		}
	}
}

// TestCheckRoutesConcurrent runs the route check from several goroutines at
// once, over the legal design and every broken copy, so calls that share
// check state race under -race if they can.
func TestCheckRoutesConcurrent(t *testing.T) {
	d := routedVariant(t)
	type job struct {
		d    *phys.Design
		want string
	}
	jobs := []job{{d: d}}
	for _, tc := range routeCases {
		bad := withRoutes(d)
		jobs = append(jobs, job{bad, tc.edit(t, bad)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 5*len(jobs); k++ {
				j := jobs[(k+w)%len(jobs)]
				got := ""
				if err := j.d.CheckRoutes(); err != nil {
					got = err.Error()
				}
				if got != j.want {
					t.Errorf("worker %d: CheckRoutes = %q, want %q", w, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCheckRoutes checks the Figure 4 base and its ten variants, each
// built with its own seed.
func BenchmarkCheckRoutes(b *testing.B) {
	base, err := fig4Base()
	if err != nil {
		b.Fatal(err)
	}
	variants := []designs.Generator{
		designs.Counter{Bits: 6},
		designs.LFSR{Bits: 6, Taps: []int{5, 0}},
		designs.LFSR{Bits: 6, Taps: []int{5, 2, 1, 0}},
		designs.SBoxBank{N: 8, Seed: 11},
		designs.SBoxBank{N: 8, Seed: 22},
		designs.SBoxBank{N: 8, Seed: 33},
		designs.BinaryFIR{Taps: 8, Coeff: 0xB7},
		designs.BinaryFIR{Taps: 8, Coeff: 0x7E},
		designs.BinaryFIR{Taps: 8, Coeff: 0xDB},
		designs.BinaryFIR{Taps: 8, Coeff: 0xE7},
	}
	var ds []*phys.Design
	for k, gen := range variants {
		prefix := fig4Insts[min(k/3, 2)].Prefix
		v, err := flow.BuildVariant(context.Background(), base, prefix, gen, flow.Options{Seed: int64(k + 1)})
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, v.Phys)
	}
	run := func(b *testing.B, ds ...*phys.Design) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ds[i%len(ds)].CheckRoutes(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("base", func(b *testing.B) { run(b, base.Phys) })
	b.Run("variants", func(b *testing.B) { run(b, ds...) })
}
