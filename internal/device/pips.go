package device

import "fmt"

// PIP is a programmable interconnect point: a buffered, unidirectional
// connection from Src to Dst, controlled by one configuration bit. The bit
// lives in the CLB column of the owning tile (Row, Col) at local bit
// pipBitsBase+CatalogIdx.
type PIP struct {
	Src, Dst NodeID
	Row, Col int // owning tile, 0-based
	// CatalogIdx is the PIP's position in the owning tile's catalog.
	CatalogIdx int
}

// Bit returns the configuration-bit coordinate controlling the PIP.
func (p *Part) PIPBit(pip PIP) BitCoord {
	return p.CLBBit(pip.Row, pip.Col, pipBitsBase+pip.CatalogIdx)
}

func (p *Part) pipString(pip PIP) string {
	return fmt.Sprintf("pip R%dC%d %s -> %s", pip.Row+1, pip.Col+1, p.NodeName(pip.Src), p.NodeName(pip.Dst))
}

// TilePIPs enumerates the PIP catalog of tile (row, col) in a fixed,
// documented order. The order determines each PIP's configuration bit
// (local bit pipBitsBase + position), so it must never change:
//
//  1. output muxes: OUT o -> singles E/N/W/S[o], hexes HE/HN/HW/HS[o%4]
//  2. switchbox turns for singles arriving from the 4 neighbours
//  3. hex taps (distance 3 and 6) onto local singles
//  4. long-line drives and taps
//  5. input-pin muxes (data pins from fabric, CLK/CE/SR from globals)
//  6. pad connections (perimeter tiles only)
func (p *Part) TilePIPs(row, col int) []PIP {
	var pips []PIP
	add := func(src, dst NodeID) {
		pips = append(pips, PIP{Src: src, Dst: dst, Row: row, Col: col, CatalogIdx: len(pips)})
	}
	local := func(w int) NodeID { return p.TileWireNode(row, col, w) }

	// 1. Output muxes.
	for o := 0; o < NumOutsPerTile; o++ {
		out := local(WireOutBase + o)
		for d := 0; d < NumDirs; d++ {
			add(out, local(SingleWire(d, o)))
		}
		for d := 0; d < NumDirs; d++ {
			add(out, local(HexWire(d, o%HexesPerDir)))
		}
	}

	// 2. Switchbox turns. A single driven direction D by a neighbour arrives
	// here and can continue straight (re-driven) or turn. Turn offsets mix
	// odd and even values so no index-parity class is closed under turning
	// (a closed parity class would make some corner input muxes unreachable
	// from half the output pins).
	for i := 0; i < SinglesPerDir; i++ {
		if col > 0 { // from west neighbour, heading east
			src := p.TileWireNode(row, col-1, SingleWire(DirE, i))
			add(src, local(SingleWire(DirE, i)))
			add(src, local(SingleWire(DirN, i)))
			add(src, local(SingleWire(DirS, (i+1)%SinglesPerDir)))
		}
		if col < p.Cols-1 { // from east neighbour, heading west
			src := p.TileWireNode(row, col+1, SingleWire(DirW, i))
			add(src, local(SingleWire(DirW, i)))
			add(src, local(SingleWire(DirN, (i+3)%SinglesPerDir)))
			add(src, local(SingleWire(DirS, (i+4)%SinglesPerDir)))
		}
		if row > 0 { // from north neighbour, heading south
			src := p.TileWireNode(row-1, col, SingleWire(DirS, i))
			add(src, local(SingleWire(DirS, i)))
			add(src, local(SingleWire(DirE, (i+1)%SinglesPerDir)))
			add(src, local(SingleWire(DirW, (i+2)%SinglesPerDir)))
		}
		if row < p.Rows-1 { // from south neighbour, heading north
			src := p.TileWireNode(row+1, col, SingleWire(DirN, i))
			add(src, local(SingleWire(DirN, i)))
			add(src, local(SingleWire(DirE, (i+6)%SinglesPerDir)))
			add(src, local(SingleWire(DirW, (i+7)%SinglesPerDir)))
		}
	}

	// 3. Hex taps: a hex driven toward this tile from distance 3 or 6 can be
	// tapped onto local singles.
	for i := 0; i < HexesPerDir; i++ {
		for _, dist := range []int{3, 6} {
			if col-dist >= 0 { // HE from the west
				src := p.TileWireNode(row, col-dist, HexWire(DirE, i))
				add(src, local(SingleWire(DirE, i)))
				add(src, local(SingleWire(DirS, (i+1)%SinglesPerDir)))
			}
			if col+dist < p.Cols { // HW from the east
				src := p.TileWireNode(row, col+dist, HexWire(DirW, i))
				add(src, local(SingleWire(DirW, i)))
				add(src, local(SingleWire(DirN, (i+1)%SinglesPerDir)))
			}
			if row-dist >= 0 { // HS from the north
				src := p.TileWireNode(row-dist, col, HexWire(DirS, i))
				add(src, local(SingleWire(DirS, i)))
				add(src, local(SingleWire(DirE, (i+5)%SinglesPerDir)))
			}
			if row+dist < p.Rows { // HN from the south
				src := p.TileWireNode(row+dist, col, HexWire(DirN, i))
				add(src, local(SingleWire(DirN, i)))
				add(src, local(SingleWire(DirW, (i+5)%SinglesPerDir)))
			}
		}
	}

	// 4. Long lines: every tile can drive its row/column long lines from
	// dedicated outputs; tiles at 3-tile intervals can tap them.
	for j := 0; j < NumLongPerRow; j++ {
		add(local(WireOutBase+j), p.RowLongNode(row, j))
	}
	for j := 0; j < NumLongPerCol; j++ {
		add(local(WireOutBase+2+j), p.ColLongNode(col, j))
	}
	if col%3 == 0 {
		for j := 0; j < NumLongPerRow; j++ {
			add(p.RowLongNode(row, j), local(SingleWire(DirE, j)))
			add(p.RowLongNode(row, j), local(SingleWire(DirW, j)))
		}
	}
	if row%3 == 0 {
		for j := 0; j < NumLongPerCol; j++ {
			add(p.ColLongNode(col, j), local(SingleWire(DirN, j)))
			add(p.ColLongNode(col, j), local(SingleWire(DirS, j)))
		}
	}

	// 5. Input-pin muxes.
	for s := 0; s < 2; s++ {
		for k := 0; k < InPinsPerSlice; k++ {
			pin := local(InPinWire(s, k))
			g := s*InPinsPerSlice + k // 0..25, used to spread mux inputs
			switch k {
			case PinCLK:
				for gl := 0; gl < NumGlobals; gl++ {
					add(p.GlobalNode(gl), pin)
				}
				continue
			case PinCE, PinSR:
				for gl := 0; gl < NumGlobals; gl++ {
					add(p.GlobalNode(gl), pin)
				}
				// plus the regular fabric sources below
			}
			{ // data pins F1..G4, BX, BY; fabric sources for CE/SR
				if col > 0 {
					add(p.TileWireNode(row, col-1, SingleWire(DirE, g%SinglesPerDir)), pin)
				}
				if col < p.Cols-1 {
					add(p.TileWireNode(row, col+1, SingleWire(DirW, (g+1)%SinglesPerDir)), pin)
				}
				if row > 0 {
					add(p.TileWireNode(row-1, col, SingleWire(DirS, (g+2)%SinglesPerDir)), pin)
				}
				if row < p.Rows-1 {
					add(p.TileWireNode(row+1, col, SingleWire(DirN, (g+3)%SinglesPerDir)), pin)
				}
				add(local(SingleWire(DirE, (g+5)%SinglesPerDir)), pin)
				add(local(WireOutBase+g%NumOutsPerTile), pin)
			}
		}
	}

	// 6. Pad connections on perimeter tiles.
	for _, pd := range p.PadsOfTile(row, col) {
		in, out := p.PadNodeI(pd), p.PadNodeO(pd)
		switch pd.Edge {
		case EdgeL:
			add(in, local(SingleWire(DirE, 0)))
			add(in, local(SingleWire(DirE, 1)))
			add(in, local(SingleWire(DirN, 0)))
			add(in, local(SingleWire(DirS, 0)))
			add(local(SingleWire(DirW, 0)), out)
			add(local(SingleWire(DirW, 1)), out)
			add(local(WireOutBase+0), out)
			add(local(WireOutBase+1), out)
		case EdgeR:
			add(in, local(SingleWire(DirW, 0)))
			add(in, local(SingleWire(DirW, 1)))
			add(in, local(SingleWire(DirN, 1)))
			add(in, local(SingleWire(DirS, 1)))
			add(local(SingleWire(DirE, 0)), out)
			add(local(SingleWire(DirE, 1)), out)
			add(local(WireOutBase+2), out)
			add(local(WireOutBase+3), out)
		case EdgeT:
			add(in, local(SingleWire(DirS, 0)))
			add(in, local(SingleWire(DirS, 1)))
			add(in, local(SingleWire(DirE, 2)))
			add(in, local(SingleWire(DirW, 2)))
			add(local(SingleWire(DirN, 0)), out)
			add(local(SingleWire(DirN, 1)), out)
			add(local(WireOutBase+4), out)
			add(local(WireOutBase+5), out)
		case EdgeB:
			add(in, local(SingleWire(DirN, 2)))
			add(in, local(SingleWire(DirN, 3)))
			add(in, local(SingleWire(DirE, 3)))
			add(in, local(SingleWire(DirW, 3)))
			add(local(SingleWire(DirS, 0)), out)
			add(local(SingleWire(DirS, 1)), out)
			add(local(WireOutBase+6), out)
			add(local(WireOutBase+7), out)
		}
	}

	if len(pips) > pipBitsBudget {
		panic(fmt.Sprintf("device: tile R%dC%d has %d PIPs, budget %d",
			row+1, col+1, len(pips), pipBitsBudget))
	}
	return pips
}

// HopTarget is a routing-search target decoded once for HopBound: the tile
// of a slice input pin, or the tile next to an output pad.
type HopTarget struct {
	row, col int
	kind     hopKind
}

type hopKind uint8

const (
	hopNone hopKind = iota // no tile to aim at: HopBound is 0
	hopPin
	hopPad
)

// HopTarget decodes a search target: an input pin or an output-pad node.
// Any other node decodes to a target whose bound is 0 everywhere.
func (p *Part) HopTarget(target NodeID) HopTarget {
	in := int(target)
	switch {
	case in >= 0 && in < p.rowLongBase() && in%WiresPerTile >= WireInPinBase:
		t := in / WiresPerTile
		return HopTarget{row: t / p.Cols, col: t % p.Cols, kind: hopPin}
	case in >= p.padBase() && in < p.NumNodes() && (in-p.padBase())%2 == 1:
		row, col := p.PadTile(p.padAt((in - p.padBase()) / 2))
		return HopTarget{row: row, col: col, kind: hopPad}
	}
	return HopTarget{}
}

// dirRow and dirCol are the tile offsets of one step in each direction.
var (
	dirRow = [NumDirs]int{DirN: -1, DirS: 1}
	dirCol = [NumDirs]int{DirE: 1, DirW: -1}
)

// HopBound returns a lower bound on the number of nodes any path from n to
// t must claim after n, the target included. It reads the reach rules of
// TilePIPs:
//
//   - only OUT wires drive hexes and long lines, and an OUT of tile T feeds
//     T's pins and pads directly;
//   - a single driven by T toward D ends at tile A = T+D and feeds only A's
//     singles and pins, T's pads and, for E singles, T's pins, so each
//     single hop advances at most one tile;
//   - a hex driven by T toward D feeds only the singles of T+3D and T+6D;
//   - pins feed nothing.
//
// Long lines, globals and pads get 0. With m the Manhattan distance in
// tiles and t the target tile (the pad's tile P for an output pad):
//
//	node             pin in tile t                       output pad, tile P
//	OUT of T         1 if T = t, else 2                  1 if T = P, else 2
//	single T→D       1 if A = t or (D = E, T = t),       1 if T = P,
//	                 else m(A,t)+1                       else m(A,P)+2
//	hex T→D          min over X ∈ {T+3D, T+6D}           min over X
//	                 of max(m(X,t),1)+1                  of m(X,P)+2
//
// Every node a router claims costs at least 1, so the bound never
// overestimates a path's cost and A* searches stay exact.
func (p *Part) HopBound(n NodeID, t HopTarget) int {
	in := int(n)
	if t.kind == hopNone || in < 0 || in >= p.rowLongBase() {
		return 0
	}
	tile, w := in/WiresPerTile, in%WiresPerTile
	row, col := tile/p.Cols, tile%p.Cols
	here := row == t.row && col == t.col
	switch {
	case w < WireSingleBase: // OUT
		if here {
			return 1
		}
		return 2
	case w < WireHexBase: // single
		d := (w - WireSingleBase) / SinglesPerDir
		m := t.dist(row+dirRow[d], col+dirCol[d])
		if t.kind == hopPad {
			if here {
				return 1
			}
			return m + 2
		}
		if m == 0 || (d == DirE && here) {
			return 1
		}
		return m + 1
	case w < WireInPinBase: // hex
		d := (w - WireHexBase) / HexesPerDir
		m := min(t.dist(row+3*dirRow[d], col+3*dirCol[d]), t.dist(row+6*dirRow[d], col+6*dirCol[d]))
		if t.kind == hopPad {
			return m + 2
		}
		return max(m, 1) + 1
	}
	return 0 // input pin
}

// dist is the Manhattan distance in tiles from (row, col) to the target.
func (t HopTarget) dist(row, col int) int {
	return abs(row-t.row) + abs(col-t.col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
