package flow

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitgen"
	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/ucf"
	"repro/internal/xdl"
)

// The stage runner: every entry point implements its design by walking one
// table — map (when the entry point has one), place, route, bitgen, emit —
// with or without a cache attached. Each row declares its chained cache key,
// its compute step and the encoding of its result; the runner does the
// per-stage bookkeeping once, on every path.

// Stage indices into the stage table.
const (
	sMap = iota
	sPlace
	sRoute
	sBitgen
	sEmit
	numStages
)

// stage is one row of the stage table.
type stage struct {
	name string // span, histogram, log and errors_total name
	memo string // cache stage name
	hist *obs.Histogram
	// key derives the stage's cache key; keys chain through runner.keys.
	key func(r *runner) cache.Key
	// compute runs the stage on the live design.
	compute func(ctx context.Context, r *runner) error
	// encode and decode carry the result through the cache. The map stage
	// has neither: its netlist is memoized as a shared live value.
	encode func(r *runner) ([]byte, error)
	decode func(r *runner, data []byte) error
	// check runs after the stage ends, on computed and cached results alike.
	check func(ctx context.Context, r *runner) error
}

var stages = [numStages]stage{
	sMap: {
		name: "map", memo: "map", hist: mMapNS,
		key: func(r *runner) cache.Key { return r.mapping.key() },
		compute: func(_ context.Context, r *runner) (err error) {
			r.nl, err = r.mapping.netlist()
			return err
		},
	},
	sPlace: {
		name: "place", memo: "place", hist: mPlaceNS,
		key: func(r *runner) cache.Key { return PlaceKey(r.part, r.nl, r.cons, r.opts) },
		compute: func(ctx context.Context, r *runner) (err error) {
			r.pd, err = place.PlaceCtx(ctx, r.part, r.nl, r.opts.placeOptions(r.cons))
			return err
		},
		encode: func(r *runner) ([]byte, error) { return ncd.Marshal(r.pd) },
		// A cached placement is bound only if route has to run (routeStage),
		// so a warm run binds one NCD: the routed design.
		decode: func(r *runner, data []byte) error {
			r.placed = data
			return nil
		},
	},
	sRoute: {
		name: "route", memo: "route", hist: mRouteNS,
		key:     func(r *runner) cache.Key { return RouteKey(r.keys[sPlace], r.regionFP) },
		compute: routeStage,
		encode:  func(r *runner) ([]byte, error) { return ncd.Marshal(r.pd) },
		// A cached routing must pass the check a computed one passes: the
		// bitgen and emit entries served under its key never rerun bitgen's.
		decode: func(r *runner, data []byte) error {
			pd, err := bindNCD(data, r.part, r.nl)
			if err == nil {
				err = pd.CheckRoutes()
			}
			if err != nil {
				return err
			}
			r.pd = pd
			return nil
		},
	},
	sBitgen: {
		name: "bitgen", memo: "bitgen", hist: mBitgenNS,
		key: func(r *runner) cache.Key { return BitgenKey(r.keys[sRoute]) },
		compute: func(_ context.Context, r *runner) (err error) {
			r.bs, err = bitgen.FullBitstream(r.pd)
			return err
		},
		encode: func(r *runner) ([]byte, error) { return r.bs, nil },
		decode: func(r *runner, data []byte) error {
			r.bs = data
			return nil
		},
		// Verification covers cached bitstreams too: a corrupted cache entry
		// must not reach a device just because bitgen was skipped.
		check: func(ctx context.Context, r *runner) error { return verifyBitstream(ctx, r.opts, r.bs) },
	},
	sEmit: {
		name: "emit", memo: "xdl", hist: mEmitNS,
		key: func(r *runner) cache.Key { return XDLKey(r.keys[sRoute]) },
		compute: func(_ context.Context, r *runner) (err error) {
			r.xdl, err = xdl.Emit(r.pd)
			return err
		},
		encode: func(r *runner) ([]byte, error) { return []byte(r.xdl), nil },
		decode: func(r *runner, data []byte) error {
			r.xdl = string(data)
			return nil
		},
	},
}

// routeStage routes the placed design. A placement served by the cache is
// bound here, only when route has to run; one that fails to bind is removed
// and placed again.
func routeStage(ctx context.Context, r *runner) error {
	if r.pd == nil {
		pd, err := bindNCD(r.placed, r.part, r.nl)
		if err != nil {
			r.cache.Remove("place", r.keys[sPlace])
			if pd, err = place.PlaceCtx(ctx, r.part, r.nl, r.opts.placeOptions(r.cons)); err != nil {
				return err
			}
		}
		r.pd = pd
	}
	return route.RouteCtx(ctx, r.pd, route.Options{RegionForNet: r.rfn})
}

// job is one implementation run's inputs.
type job struct {
	part    *device.Part
	mapping *mapping        // the map step; nil when nl is given
	nl      *netlist.Design // the netlist to implement, when mapping is nil
	cons    *ucf.Constraints
	rfn     func(*netlist.Net) *frames.Region
	// regionFP canonically describes rfn's region constraints for the
	// route key; it is unused when no cache is attached.
	regionFP string
	opts     Options
}

// runner is one walk of the stage table: the job, the cache attached to
// the context (or nil), and the results the stages hand on.
type runner struct {
	job
	cache  *cache.Cache
	keys   [numStages]cache.Key
	placed []byte // a placement served by the cache, not yet bound
	pd     *phys.Design
	bs     []byte
	xdl    string
	times  [numStages]time.Duration
}

// run implements the job. A cancelled run stops at the next stage boundary:
// stages are CPU-bound and uninterruptible, but no new stage starts once
// the context dies.
func (j job) run(ctx context.Context) (Artifacts, error) {
	r := &runner{job: j, cache: cache.FromContext(ctx)}
	first := sPlace
	if j.mapping != nil {
		first = sMap
	}
	for i := first; i < numStages; i++ {
		if err := ctx.Err(); err != nil {
			return Artifacts{}, err
		}
		if err := r.step(ctx, i); err != nil {
			return Artifacts{}, err
		}
	}
	a := Artifacts{
		Part: r.part, Netlist: r.nl, Phys: r.pd,
		XDL: r.xdl, Bitstream: r.bs,
		Times: StageTimes{
			Synthesis: r.times[sMap],
			Place:     r.times[sPlace],
			Route:     r.times[sRoute],
			Bitgen:    r.times[sBitgen],
		},
	}
	if r.cons != nil {
		a.UCF = r.cons.Emit()
	}
	return a, nil
}

// step runs stage i and does its bookkeeping right after it ends, whether
// it computed or was served by the cache: the span (with its cache attr
// when a cache is attached), the flow.<stage>_ns sample, and on failure the
// errors_total.<stage> count.
func (r *runner) step(ctx context.Context, i int) error {
	st := &stages[i]
	t0 := time.Now()
	sctx, sp := obs.Start(ctx, st.name)
	hit, err := r.lookup(sctx, i)
	r.times[i] = time.Since(t0)
	if r.cache != nil {
		sp.SetStr("cache", hitStr(hit))
	}
	sp.EndErr(err)
	if err != nil {
		obs.CountError(st.name)
		return err
	}
	st.hist.Observe(r.times[i].Nanoseconds())
	if st.check != nil {
		return st.check(ctx, r)
	}
	return nil
}

// lookup runs stage i's compute step, or with a cache attached looks the
// stage up once under its chained key and reports whether it hit.
func (r *runner) lookup(ctx context.Context, i int) (hit bool, err error) {
	st := &stages[i]
	if r.cache == nil {
		return false, st.compute(ctx, r)
	}
	k := st.key(r)
	r.keys[i] = k
	if st.encode == nil {
		v, hit, err := r.cache.GetOrComputeValue(ctx, st.memo, k, func() (any, int64, error) {
			if err := st.compute(ctx, r); err != nil {
				return nil, 0, err
			}
			return r.nl, netlistSizeEstimate(r.nl), nil
		})
		if err == nil {
			r.nl = v.(*netlist.Design)
		}
		return hit, err
	}
	data, hit, err := r.cache.GetOrCompute(ctx, st.memo, k, func() ([]byte, error) {
		if err := st.compute(ctx, r); err != nil {
			return nil, err
		}
		return st.encode(r)
	})
	if err != nil || !hit {
		return false, err
	}
	if st.decode(r, data) != nil {
		// An unusable entry (stale or colliding) costs time, never
		// correctness: drop it and compute the stage for real. The next
		// run stores the result again.
		r.cache.Remove(st.memo, k)
		if err := st.compute(ctx, r); err != nil {
			return false, err
		}
		_, err := st.encode(r)
		return false, err
	}
	return true, nil
}

// mapping is an entry point's map step: a generated netlist, either a base
// design over instances or (standalone) one instance's module on its own.
type mapping struct {
	name       string
	insts      []designs.Instance
	standalone bool
}

func (m *mapping) netlist() (*netlist.Design, error) {
	if m.standalone {
		return designs.Standalone(m.insts[0].Gen, m.name, m.insts[0].Prefix)
	}
	return designs.BaseDesign(m.name, m.insts)
}

// key is the map memo's key. Generators are keyed on %#v, which spells out
// every exported parameter field — Generator.Name() may omit some (e.g. a
// seed) and must not be trusted as an identity.
func (m *mapping) key() cache.Key {
	h := cache.NewHasher("flow.map/v2")
	h.Bool("standalone", m.standalone)
	h.Str("name", m.name)
	h.Int("insts", int64(len(m.insts)))
	for _, inst := range m.insts {
		h.Str("prefix", inst.Prefix)
		h.Str("gen", fmt.Sprintf("%#v", inst.Gen))
	}
	return h.Sum()
}

// netlistSizeEstimate approximates a live netlist's memory footprint for the
// cache's byte bound.
func netlistSizeEstimate(nl *netlist.Design) int64 {
	return int64(len(nl.Cells))*256 + int64(len(nl.Nets))*128 + int64(len(nl.Ports))*64 + 1024
}
