package device

import (
	"fmt"
	"strconv"
)

// Routing resources are modelled as an island-style graph. Every CLB tile
// owns a fixed set of wires; additional device-level nodes cover long lines,
// global (clock) lines, and I/O pads.
//
// Per-tile wire namespace (index within the tile):
//
//	 0.. 7  OUT0..OUT7   slice output pins (slice s: s*4 + {X,Y,XQ,YQ})
//	 8..15  E0..E7       single-length wires driven eastward by this tile
//	16..23  N0..N7       singles driven northward
//	24..31  W0..W7       singles driven westward
//	32..39  S0..S7       singles driven southward
//	40..43  HE0..HE3     hex (length-6) wires driven eastward
//	44..47  HN0..HN3     hexes northward
//	48..51  HW0..HW3     hexes westward
//	52..55  HS0..HS3     hexes southward
//	56..81  input pins   slice s: 56 + s*13 + k, k indexes
//	                     F1 F2 F3 F4 G1 G2 G3 G4 BX BY CLK CE SR
//
// A wire driven by tile T is visible (tappable) in the tiles its segment
// reaches; PIPs that tap it belong to the tapping tile and reference the
// source node (T, wire).

// Per-tile wire index bases and counts.
const (
	WireOutBase    = 0
	NumOutsPerTile = 8

	WireSingleBase   = 8
	SinglesPerDir    = 8
	WireHexBase      = 40
	HexesPerDir      = 4
	WireInPinBase    = 56
	InPinsPerSlice   = 13
	NumInPinsPerTile = 2 * InPinsPerSlice

	WiresPerTile = 82
)

// Directions for singles and hexes.
const (
	DirE    = 0
	DirN    = 1
	DirW    = 2
	DirS    = 3
	NumDirs = 4
)

var dirNames = [NumDirs]string{"E", "N", "W", "S"}

// Slice input pin indices (k within a slice's 13 input pins).
const (
	PinF1 = iota
	PinF2
	PinF3
	PinF4
	PinG1
	PinG2
	PinG3
	PinG4
	PinBX
	PinBY
	PinCLK
	PinCE
	PinSR
)

var inPinNames = [InPinsPerSlice]string{
	"F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "BX", "BY", "CLK", "CE", "SR",
}

// Slice output pin indices (within OUT0..OUT7: slice s offsets s*4+...).
const (
	OutX = iota
	OutY
	OutXQ
	OutYQ
)

var outPinNames = [4]string{"X", "Y", "XQ", "YQ"}

// OutWire returns the per-tile wire index of a slice output pin.
func OutWire(slice, pin int) int { return WireOutBase + slice*4 + pin }

// SingleWire returns the per-tile wire index of single i driven in direction d.
func SingleWire(dir, i int) int { return WireSingleBase + dir*SinglesPerDir + i }

// HexWire returns the per-tile wire index of hex i driven in direction d.
func HexWire(dir, i int) int { return WireHexBase + dir*HexesPerDir + i }

// InPinWire returns the per-tile wire index of input pin k of the slice.
func InPinWire(slice, k int) int { return WireInPinBase + slice*InPinsPerSlice + k }

// WireName returns the canonical name of a per-tile wire index, e.g. "OUT3",
// "E5", "HN1", "S1_G4".
func WireName(w int) string {
	if w >= 0 && w < WiresPerTile {
		return wireNames[w]
	}
	return fmt.Sprintf("W?%d", w)
}

// wireNames holds every per-tile wire's name, so node names are appended
// without formatting.
var wireNames = func() (names [WiresPerTile]string) {
	for w := range names {
		switch {
		case w < WireSingleBase:
			names[w] = fmt.Sprintf("OUT%d", w-WireOutBase)
		case w < WireHexBase:
			i := w - WireSingleBase
			names[w] = fmt.Sprintf("%s%d", dirNames[i/SinglesPerDir], i%SinglesPerDir)
		case w < WireInPinBase:
			i := w - WireHexBase
			names[w] = fmt.Sprintf("H%s%d", dirNames[i/HexesPerDir], i%HexesPerDir)
		default:
			i := w - WireInPinBase
			names[w] = fmt.Sprintf("S%d_%s", i/InPinsPerSlice, inPinNames[i%InPinsPerSlice])
		}
	}
	return names
}()

var wireByName = func() map[string]int {
	m := make(map[string]int, WiresPerTile)
	for w, name := range wireNames {
		m[name] = w
	}
	return m
}()

// WireByName resolves a per-tile wire name produced by WireName.
func WireByName(name string) (int, bool) {
	w, ok := wireByName[name]
	return w, ok
}

// NodeID identifies a routing node on a specific part. The node space is laid
// out as: tile wires, then row long lines, column long lines, global lines,
// and pad nodes (see the Node* methods on Part).
type NodeID int32

// NumLongPerRow and NumLongPerCol are the long lines per row/column.
const (
	NumLongPerRow = 2
	NumLongPerCol = 2
	NumGlobals    = 4
)

// Node space layout helpers.

func (p *Part) tileIndex(row, col int) int { return row*p.Cols + col }

// TileWireNode returns the node for wire w of tile (row, col), 0-based.
func (p *Part) TileWireNode(row, col, w int) NodeID {
	return NodeID(p.tileIndex(row, col)*WiresPerTile + w)
}

func (p *Part) rowLongBase() int { return p.Rows * p.Cols * WiresPerTile }
func (p *Part) colLongBase() int { return p.rowLongBase() + p.Rows*NumLongPerRow }
func (p *Part) globalBase() int  { return p.colLongBase() + p.Cols*NumLongPerCol }
func (p *Part) padBase() int     { return p.globalBase() + NumGlobals }

// RowLongNode returns row long line j of CLB row `row`.
func (p *Part) RowLongNode(row, j int) NodeID {
	return NodeID(p.rowLongBase() + row*NumLongPerRow + j)
}

// ColLongNode returns column long line j of CLB column `col`.
func (p *Part) ColLongNode(col, j int) NodeID {
	return NodeID(p.colLongBase() + col*NumLongPerCol + j)
}

// GlobalNode returns global line g (0..3). Global lines distribute clocks and
// control signals to every tile's CLK/CE/SR pin muxes.
func (p *Part) GlobalNode(g int) NodeID { return NodeID(p.globalBase() + g) }

// PadNodeI and PadNodeO return the fabric-driving (input path) and
// fabric-driven (output path) nodes of a pad.
func (p *Part) PadNodeI(pad Pad) NodeID { return NodeID(p.padBase() + p.padIndex(pad)*2) }
func (p *Part) PadNodeO(pad Pad) NodeID { return NodeID(p.padBase() + p.padIndex(pad)*2 + 1) }

// NumNodes returns the size of the node space for this part.
func (p *Part) NumNodes() int { return p.padBase() + p.NumPads()*2 }

// NodeName renders a node as a stable, parseable name:
//
//	wire:     "R3C23.E2" (1-based tile coordinates)
//	row long: "ROW3.HL0"; col long: "COL5.VL1"
//	global:   "GLB0"
//	pad:      "P_L3.I" / "P_T12.O"
func (p *Part) NodeName(n NodeID) string {
	var buf [32]byte
	return string(p.AppendNodeName(buf[:0], n, -1, -1))
}

// AppendNodeName appends NodeName(n) to b, except that a wire of tile
// (row, col) is written tile-relative ("E2", not "R3C23.E2"), as an XDL pip
// statement anchored at that tile names it. Pass row -1 for NodeName's form.
func (p *Part) AppendNodeName(b []byte, n NodeID, row, col int) []byte {
	in := int(n)
	switch {
	case in < 0:
	case in < p.rowLongBase():
		t, w := in/WiresPerTile, in%WiresPerTile
		if r, c := t/p.Cols, t%p.Cols; r != row || c != col {
			b = append(AppendTileName(b, r, c), '.')
		}
		return append(b, wireNames[w]...)
	case in < p.colLongBase():
		i := in - p.rowLongBase()
		b = strconv.AppendInt(append(b, "ROW"...), int64(i/NumLongPerRow+1), 10)
		return strconv.AppendInt(append(b, ".HL"...), int64(i%NumLongPerRow), 10)
	case in < p.globalBase():
		i := in - p.colLongBase()
		b = strconv.AppendInt(append(b, "COL"...), int64(i/NumLongPerCol+1), 10)
		return strconv.AppendInt(append(b, ".VL"...), int64(i%NumLongPerCol), 10)
	case in < p.padBase():
		return strconv.AppendInt(append(b, "GLB"...), int64(in-p.globalBase()), 10)
	case in < p.NumNodes():
		i := in - p.padBase()
		side := ".I"
		if i%2 == 1 {
			side = ".O"
		}
		return append(p.padAt(i/2).appendName(b), side...)
	}
	return strconv.AppendInt(append(b, "N?"...), int64(in), 10)
}

// NodeTile returns the tile that owns a tile-wire node, or ok=false for
// device-level nodes (long lines, globals, pads).
func (p *Part) NodeTile(n NodeID) (row, col, wire int, ok bool) {
	in := int(n)
	if in < 0 || in >= p.rowLongBase() {
		return 0, 0, 0, false
	}
	t, w := in/WiresPerTile, in%WiresPerTile
	return t / p.Cols, t % p.Cols, w, true
}
