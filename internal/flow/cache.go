package flow

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// Content-addressed stage memoization. Each stage's key is a hash of
// everything its output depends on, and keys chain: a route key contains its
// place key, a bitgen key its route key, so invalidation is automatic — any
// changed input changes every downstream key. The cache is consulted only
// when one is attached to the context (cache.With). The stage runner
// (stages.go) then looks every stage up once, in order; with no cache it
// runs the same stages without hashing a key, so results are byte-identical
// with caching on, off, cold or warm.
//
// Stage values are the flow's own serialised artifacts: placements and
// routed designs as NCD bytes (rehydrated onto the caller's live netlist
// with phys.Bind), bitstreams and XDL as raw bytes. A warm run binds one
// NCD, the routed design; a cached placement is bound only when route has
// to run. An entry that fails to bind is removed and its stage recomputed,
// so a damaged cache can cost time but never correctness. Generated
// netlists are memoized as shared live objects (memory tier only) — the
// placer and router treat netlists as read-only, so concurrent runs may
// share one.

// Fingerprint returns a stable content hash of the options, for use as a
// CAD cache key component. Effort is normalised the way the placer
// normalises it (<= 0 means 1.0), and the guide map is hashed in sorted
// order since its iteration order is irrelevant to placement. Workers and
// Verify are deliberately absent: they never change results.
func (o Options) Fingerprint() string {
	h := cache.NewHasher("flow.options/v3")
	h.Int("seed", o.Seed)
	effort := o.Effort
	if effort <= 0 {
		effort = 1.0
	}
	h.Float("effort", effort)
	h.Int("guide", int64(len(o.Guide)))
	names := make([]string, 0, len(o.Guide))
	for name := range o.Guide {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Str("guide."+name, o.Guide[name].String())
	}
	return h.Sum().String()
}

// PlaceKey is the cache key of the placement stage: part + netlist content
// + constraints + options. Exported for the key-stability golden test.
func PlaceKey(p *device.Part, nl *netlist.Design, cons *ucf.Constraints, opts Options) cache.Key {
	h := cache.NewHasher("flow.place/v2")
	h.Str("part", p.Name)
	h.Str("netlist", nl.Fingerprint())
	h.Str("ucf", cons.Fingerprint())
	h.Str("opts", opts.Fingerprint())
	return h.Sum()
}

// RouteKey chains the placement key with the router's region constraints
// (regionFP canonically describes the caller's RegionForNet function).
func RouteKey(placeKey cache.Key, regionFP string) cache.Key {
	h := cache.NewHasher("flow.route/v3")
	h.Key("place", placeKey)
	h.Str("regions", regionFP)
	return h.Sum()
}

// BitgenKey chains the route key; the bitstream depends on nothing else.
func BitgenKey(routeKey cache.Key) cache.Key {
	h := cache.NewHasher("flow.bitgen/v1")
	h.Key("route", routeKey)
	return h.Sum()
}

// XDLKey chains the route key for the XDL emission stage.
func XDLKey(routeKey cache.Key) cache.Key {
	h := cache.NewHasher("flow.xdl/v1")
	h.Key("route", routeKey)
	return h.Sum()
}

// regionsFingerprint canonically describes a floorplan's region map.
func regionsFingerprint(regions map[string]frames.Region) string {
	prefixes := make([]string, 0, len(regions))
	for prefix := range regions {
		prefixes = append(prefixes, prefix)
	}
	sort.Strings(prefixes)
	h := cache.NewHasher("flow.regions/v1")
	for _, prefix := range prefixes {
		h.Str(prefix, regions[prefix].String())
	}
	return "map:" + h.Sum().String()
}

func hitStr(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// bindNCD rehydrates serialised NCD bytes onto a live netlist.
func bindNCD(data []byte, p *device.Part, nl *netlist.Design) (*phys.Design, error) {
	f, err := ncd.UnmarshalFlat(data)
	if err != nil {
		return nil, err
	}
	return phys.Bind(f, p, nl)
}
