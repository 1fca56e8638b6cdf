package device

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Graph is the routing graph of a part: forward adjacency over all PIPs.
// Building it touches every tile, so graphs are cached per part; routers for
// small parts pay ~milliseconds, the largest parts tens of milliseconds.
//
// A Graph is immutable once built: no method mutates it, and slices it hands
// out (From) alias read-only storage. Any number of routers may therefore
// share one Graph concurrently without synchronisation, which is what lets
// internal/parallel farm independent place-and-route runs on the same part.
type Graph struct {
	Part *Part
	// adjacency in CSR form: edges out of node n are
	// pips[start[n]:start[n+1]].
	start []int32
	pips  []PIP
}

// graphEntry is one per-part cache slot: the sync.Once serialises the build
// so concurrent first callers neither duplicate the work nor observe a
// half-built graph.
type graphEntry struct {
	once sync.Once
	g    *Graph
}

// graphCache maps part name -> *graphEntry. A sync.Map (rather than a
// mutex-guarded map) makes cache *hits* lock-free: after the first build,
// NewGraph is a read-only Load plus a no-op Once, so concurrent routers on
// the same part do not contend on a global lock.
var graphCache sync.Map

// Cache effectiveness counters (see internal/obs): a miss is the call that
// performs the build for a part, every other call is a hit. Exactly one
// miss per part is recorded no matter how many callers race the first use.
var (
	graphCacheHits   = obs.GetCounter("device.graph_cache.hits")
	graphCacheMisses = obs.GetCounter("device.graph_cache.misses")
)

// NewGraph builds (or returns the cached) routing graph for the part. Safe
// for concurrent use; all callers for one part share a single Graph.
func NewGraph(p *Part) *Graph {
	e, ok := graphCache.Load(p.Name)
	if !ok {
		e, _ = graphCache.LoadOrStore(p.Name, &graphEntry{})
	}
	entry := e.(*graphEntry)
	built := false
	entry.once.Do(func() {
		entry.g = buildGraph(p)
		built = true
	})
	if built {
		graphCacheMisses.Inc()
	} else {
		graphCacheHits.Inc()
	}
	return entry.g
}

// NewGraphUncached builds a fresh graph, bypassing the cache (benchmarks).
func NewGraphUncached(p *Part) *Graph { return buildGraph(p) }

func buildGraph(p *Part) *Graph {
	counts := make([]int32, p.NumNodes()+1)
	var all []PIP
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			tp := p.TilePIPs(r, c)
			all = append(all, tp...)
			for _, pip := range tp {
				counts[pip.Src+1]++
			}
		}
	}
	start := make([]int32, p.NumNodes()+1)
	for i := 1; i < len(start); i++ {
		start[i] = start[i-1] + counts[i]
	}
	pips := make([]PIP, len(all))
	cursor := make([]int32, p.NumNodes())
	copy(cursor, start[:len(cursor)])
	for _, pip := range all {
		pips[cursor[pip.Src]] = pip
		cursor[pip.Src]++
	}
	return &Graph{Part: p, start: start, pips: pips}
}

// From returns the PIPs whose source is node n. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) From(n NodeID) []PIP {
	return g.pips[g.start[n]:g.start[n+1]]
}

// FindPIP looks up a PIP by owning tile and endpoints. buildGraph fills
// From(src) in row-major tile order, so a binary search finds the tile's
// PIPs and only those are compared: a global line has a tap in every tile.
func (g *Graph) FindPIP(row, col int, src, dst NodeID) (PIP, bool) {
	from := g.From(src)
	lo, hi := 0, len(from)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := &from[m]; p.Row < row || (p.Row == row && p.Col < col) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for _, pip := range from[lo:] {
		if pip.Row != row || pip.Col != col {
			break
		}
		if pip.Dst == dst {
			return pip, true
		}
	}
	return PIP{}, false
}

// NumPIPs returns the total number of PIPs on the part.
func (g *Graph) NumPIPs() int { return len(g.pips) }

// ParseNode parses a node name produced by Part.NodeName. thisTile supplies
// the tile for unqualified per-tile wire names (e.g. "E2" meaning the wire of
// the tile a pip statement is anchored at); pass row=-1 to forbid them.
func (p *Part) ParseNode(name string, thisRow, thisCol int) (NodeID, error) {
	switch {
	case strings.HasPrefix(name, "GLB"):
		g, err := strconv.Atoi(name[3:])
		if err != nil || g < 0 || g >= NumGlobals {
			return 0, fmt.Errorf("device: bad global node %q", name)
		}
		return p.GlobalNode(g), nil

	case strings.HasPrefix(name, "ROW"):
		base, line, ok := strings.Cut(name, ".")
		if !ok || !strings.HasPrefix(line, "HL") {
			return 0, fmt.Errorf("device: bad row-long node %q", name)
		}
		r, err1 := strconv.Atoi(base[3:])
		j, err2 := strconv.Atoi(line[2:])
		if err1 != nil || err2 != nil || r < 1 || r > p.Rows || j < 0 || j >= NumLongPerRow {
			return 0, fmt.Errorf("device: bad row-long node %q", name)
		}
		return p.RowLongNode(r-1, j), nil

	case strings.HasPrefix(name, "COL"):
		base, line, ok := strings.Cut(name, ".")
		if !ok || !strings.HasPrefix(line, "VL") {
			return 0, fmt.Errorf("device: bad col-long node %q", name)
		}
		c, err1 := strconv.Atoi(base[3:])
		j, err2 := strconv.Atoi(line[2:])
		if err1 != nil || err2 != nil || c < 1 || c > p.Cols || j < 0 || j >= NumLongPerCol {
			return 0, fmt.Errorf("device: bad col-long node %q", name)
		}
		return p.ColLongNode(c-1, j), nil

	case strings.HasPrefix(name, "P_"):
		padName, side, ok := strings.Cut(name, ".")
		if !ok {
			return 0, fmt.Errorf("device: pad node %q missing .I/.O", name)
		}
		pd, err := ParsePad(padName)
		if err != nil {
			return 0, err
		}
		if !p.ValidPad(pd) {
			return 0, fmt.Errorf("device: pad %q not on %s", padName, p.Name)
		}
		switch side {
		case "I":
			return p.PadNodeI(pd), nil
		case "O":
			return p.PadNodeO(pd), nil
		}
		return 0, fmt.Errorf("device: bad pad side in %q", name)

	case strings.HasPrefix(name, "R") && strings.Contains(name, "."):
		tile, wire, _ := strings.Cut(name, ".")
		r, c, err := ParseTileName(tile)
		if err != nil {
			return 0, err
		}
		if r >= p.Rows || c >= p.Cols {
			return 0, fmt.Errorf("device: tile %q out of range for %s", tile, p.Name)
		}
		w, ok := WireByName(wire)
		if !ok {
			return 0, fmt.Errorf("device: unknown wire %q in %q", wire, name)
		}
		return p.TileWireNode(r, c, w), nil

	default: // unqualified per-tile wire
		if thisRow < 0 {
			return 0, fmt.Errorf("device: unqualified wire %q with no anchor tile", name)
		}
		w, ok := WireByName(name)
		if !ok {
			return 0, fmt.Errorf("device: unknown wire %q", name)
		}
		return p.TileWireNode(thisRow, thisCol, w), nil
	}
}

// ParseTileName parses "R3C23" into 0-based (row, col).
func ParseTileName(s string) (row, col int, err error) {
	if !strings.HasPrefix(s, "R") {
		return 0, 0, fmt.Errorf("device: bad tile name %q", s)
	}
	rs, cs, ok := strings.Cut(s[1:], "C")
	if !ok {
		return 0, 0, fmt.Errorf("device: bad tile name %q", s)
	}
	r, err1 := strconv.Atoi(rs)
	c, err2 := strconv.Atoi(cs)
	if err1 != nil || err2 != nil || r < 1 || c < 1 {
		return 0, 0, fmt.Errorf("device: bad tile name %q", s)
	}
	return r - 1, c - 1, nil
}

// TileName renders 0-based (row, col) as "R{row+1}C{col+1}".
func TileName(row, col int) string {
	var buf [24]byte
	return string(AppendTileName(buf[:0], row, col))
}

// AppendTileName appends TileName(row, col) to b.
func AppendTileName(b []byte, row, col int) []byte {
	b = strconv.AppendInt(append(b, 'R'), int64(row+1), 10)
	return strconv.AppendInt(append(b, 'C'), int64(col+1), 10)
}
