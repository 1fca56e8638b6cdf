package netlist

import (
	"repro/internal/cache"
)

// Fingerprint returns a stable content hash of the design, for use as a CAD
// cache key component. The hash covers everything downstream stages consume
// — names, kinds, INITs, full connectivity — and deliberately walks cells,
// nets and ports in *construction order*, because the placer and router
// iterate those slices in order: two designs with identical sorted content
// but different construction order may place differently and must not share
// a cache entry.
func (d *Design) Fingerprint() string {
	h := cache.NewHasher("netlist/v1")
	h.Str("name", d.Name)
	h.Int("ports", int64(len(d.Ports)))
	for _, p := range d.Ports {
		h.Str("port", p.Name)
		h.Int("dir", int64(p.Dir))
		h.Str("pad", p.Pad)
		h.Str("net", netName(p.Net))
	}
	h.Int("cells", int64(len(d.Cells)))
	for _, c := range d.Cells {
		h.Str("cell", c.Name)
		h.Int("kind", int64(c.Kind))
		h.Int("init", int64(c.Init))
		h.Int("inputs", int64(len(c.Inputs)))
		for _, in := range c.Inputs {
			h.Str("in", netName(in))
		}
		h.Str("clock", netName(c.Clock))
		h.Str("ce", netName(c.CE))
		h.Str("reset", netName(c.Reset))
		h.Str("out", netName(c.Out))
	}
	h.Int("nets", int64(len(d.Nets)))
	for _, n := range d.Nets {
		h.Str("net", n.Name)
		h.Bool("clock", n.IsClock)
		h.Str("driver", n.Driver.String())
		if n.DriverPort != nil {
			h.Str("driverPort", n.DriverPort.Name)
		}
		h.Int("sinks", int64(len(n.Sinks)))
		for _, s := range n.Sinks {
			h.Str("sink", s.String())
		}
		for _, sp := range n.SinkPorts {
			h.Str("sinkPort", sp.Name)
		}
	}
	return h.Sum().String()
}
