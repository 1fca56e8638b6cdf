package device

import (
	"fmt"
	"strconv"
	"strings"
)

// I/O pads. One pad sits next to every perimeter CLB tile: pads P_L{r} and
// P_R{r} beside the leftmost/rightmost tile of CLB row r, and P_T{c} / P_B{c}
// above/below CLB column c (all 1-based in names, 0-based in code).
//
// Pad routing (PIPs between pad nodes and the adjacent tile's wires) is part
// of the adjacent CLB tile's PIP catalog; pad *mode* configuration bits live
// in the IOB configuration space: left/right pads in the left/right IOB
// columns (stripe r+1), top/bottom pads in their CLB column's stripe 0 /
// stripe Rows+1 (which CLB logic never uses).

// Pad edges.
const (
	EdgeL = iota
	EdgeR
	EdgeT
	EdgeB
)

var edgeNames = [4]string{"L", "R", "T", "B"}

// Pad identifies one I/O pad.
type Pad struct {
	Edge  int // EdgeL/EdgeR/EdgeT/EdgeB
	Index int // row (L/R) or column (T/B), 0-based
}

// Name returns the canonical pad name, e.g. "P_L3" (1-based index).
func (pd Pad) Name() string { return string(pd.appendName(nil)) }

func (pd Pad) appendName(b []byte) []byte {
	return strconv.AppendInt(append(append(b, "P_"...), edgeNames[pd.Edge]...), int64(pd.Index+1), 10)
}

// ParsePad parses a name produced by Pad.Name.
func ParsePad(name string) (Pad, error) {
	rest, ok := strings.CutPrefix(name, "P_")
	if !ok || len(rest) < 2 {
		return Pad{}, fmt.Errorf("device: bad pad name %q", name)
	}
	edge := -1
	for e, en := range edgeNames {
		if rest[:1] == en {
			edge = e
		}
	}
	if edge < 0 {
		return Pad{}, fmt.Errorf("device: bad pad edge in %q", name)
	}
	idx, err := strconv.Atoi(rest[1:])
	if err != nil || idx < 1 {
		return Pad{}, fmt.Errorf("device: bad pad index in %q", name)
	}
	return Pad{Edge: edge, Index: idx - 1}, nil
}

// NumPads returns the number of pads on the part.
func (p *Part) NumPads() int { return 2*p.Rows + 2*p.Cols }

// ValidPad reports whether the pad exists on this part.
func (p *Part) ValidPad(pd Pad) bool {
	switch pd.Edge {
	case EdgeL, EdgeR:
		return pd.Index >= 0 && pd.Index < p.Rows
	case EdgeT, EdgeB:
		return pd.Index >= 0 && pd.Index < p.Cols
	}
	return false
}

// padIndex linearises a pad: left rows, right rows, top cols, bottom cols.
func (p *Part) padIndex(pd Pad) int {
	if !p.ValidPad(pd) {
		panic(fmt.Sprintf("device: invalid pad %+v for %s", pd, p.Name))
	}
	switch pd.Edge {
	case EdgeL:
		return pd.Index
	case EdgeR:
		return p.Rows + pd.Index
	case EdgeT:
		return 2*p.Rows + pd.Index
	default:
		return 2*p.Rows + p.Cols + pd.Index
	}
}

// padAt is the inverse of padIndex.
func (p *Part) padAt(i int) Pad {
	switch {
	case i < p.Rows:
		return Pad{EdgeL, i}
	case i < 2*p.Rows:
		return Pad{EdgeR, i - p.Rows}
	case i < 2*p.Rows+p.Cols:
		return Pad{EdgeT, i - 2*p.Rows}
	default:
		return Pad{EdgeB, i - 2*p.Rows - p.Cols}
	}
}

// PadTile returns the CLB tile adjacent to the pad.
func (p *Part) PadTile(pd Pad) (row, col int) {
	switch pd.Edge {
	case EdgeL:
		return pd.Index, 0
	case EdgeR:
		return pd.Index, p.Cols - 1
	case EdgeT:
		return 0, pd.Index
	default:
		return p.Rows - 1, pd.Index
	}
}

// PadsOfTile returns the pads adjacent to tile (row, col); corner tiles have
// two, other perimeter tiles one, interior tiles none.
func (p *Part) PadsOfTile(row, col int) []Pad {
	var pads []Pad
	if col == 0 {
		pads = append(pads, Pad{EdgeL, row})
	}
	if col == p.Cols-1 {
		pads = append(pads, Pad{EdgeR, row})
	}
	if row == 0 {
		pads = append(pads, Pad{EdgeT, col})
	}
	if row == p.Rows-1 {
		pads = append(pads, Pad{EdgeB, col})
	}
	return pads
}

// Pad mode configuration bit indices.
const (
	PadCtlInUse = 0 // pad participates in the design
	PadCtlInEn  = 1 // input buffer enabled
	PadCtlOutEn = 2 // output driver enabled
)

// PadModeBit returns the configuration-bit coordinate of pad control bit ctl
// (PadCtl*).
func (p *Part) PadModeBit(pd Pad, ctl int) BitCoord {
	if !p.ValidPad(pd) || ctl < 0 || ctl > 17 {
		panic(fmt.Sprintf("device: bad pad mode bit (%+v, %d)", pd, ctl))
	}
	switch pd.Edge {
	case EdgeL:
		return BitCoord{MakeFAR(BlockCLB, p.LeftIOBMajor(), 0), stripeOfRow(pd.Index)*18 + ctl}
	case EdgeR:
		return BitCoord{MakeFAR(BlockCLB, p.RightIOBMajor(), 0), stripeOfRow(pd.Index)*18 + ctl}
	case EdgeT:
		return BitCoord{MakeFAR(BlockCLB, p.CLBMajor(pd.Index), 0), 0*18 + ctl}
	default: // EdgeB
		return BitCoord{MakeFAR(BlockCLB, p.CLBMajor(pd.Index), 0), (p.Rows+1)*18 + ctl}
	}
}
