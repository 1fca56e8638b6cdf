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
