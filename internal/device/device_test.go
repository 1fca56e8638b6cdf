package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogAgainstDatasheet(t *testing.T) {
	for _, p := range All() {
		bits := p.ConfigBits()
		ds := p.DatasheetConfigBits
		err := math.Abs(float64(bits-ds)) / float64(ds)
		if err > 0.01 {
			t.Errorf("%s: model %d bits vs datasheet %d bits (%.2f%% off)",
				p.Name, bits, ds, err*100)
		}
		t.Logf("%s: model=%d datasheet=%d (%.3f%%)", p.Name, bits, ds, err*100)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("XCV300")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 32 || p.Cols != 48 {
		t.Fatalf("XCV300 geometry = %dx%d, want 32x48", p.Rows, p.Cols)
	}
	if _, err := ByName("XCV9999"); err == nil {
		t.Fatal("expected error for unknown part")
	}
}

func TestFrameWords(t *testing.T) {
	cases := map[string]int{"XCV50": 12, "XCV300": 21, "XCV1000": 39}
	for name, want := range cases {
		if got := MustByName(name).FrameWords(); got != want {
			t.Errorf("%s FrameWords = %d, want %d", name, got, want)
		}
	}
}

func TestFARRoundTrip(t *testing.T) {
	for _, p := range All() {
		// Walk all frames via NextFAR and confirm FrameIndex/FARAt agree.
		f := p.FirstFAR()
		for i := 0; ; i++ {
			if !p.ValidFAR(f) {
				t.Fatalf("%s: NextFAR produced invalid %v at step %d", p.Name, f, i)
			}
			if got := p.FrameIndex(f); got != i {
				t.Fatalf("%s: FrameIndex(%v) = %d, want %d", p.Name, f, got, i)
			}
			back, err := p.FARAt(i)
			if err != nil || back != f {
				t.Fatalf("%s: FARAt(%d) = %v, %v; want %v", p.Name, i, back, err, f)
			}
			next, ok := p.NextFAR(f)
			if !ok {
				if i != p.TotalFrames()-1 {
					t.Fatalf("%s: walk ended at %d frames, want %d", p.Name, i+1, p.TotalFrames())
				}
				break
			}
			f = next
		}
		if _, err := p.FARAt(p.TotalFrames()); err == nil {
			t.Fatalf("%s: FARAt past end should error", p.Name)
		}
		if _, err := p.FARAt(-1); err == nil {
			t.Fatalf("%s: FARAt(-1) should error", p.Name)
		}
		for _, bad := range []FAR{
			MakeFAR(BlockCLB, p.NumMajors(BlockCLB), 0),
			MakeFAR(BlockCLB, p.CLBMajor(0), FramesCLBCol),
			MakeFAR(BlockBRAM, 2, 0),
			MakeFAR(NumBlockTypes, 0, 0),
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: FrameIndex(%v) did not panic", p.Name, bad)
					}
				}()
				p.FrameIndex(bad)
			}()
		}
	}
}

func TestFARFields(t *testing.T) {
	f := MakeFAR(1, 37, 12)
	if f.BlockType() != 1 || f.Major() != 37 || f.Minor() != 12 {
		t.Fatalf("FAR field round-trip broken: %v", f)
	}
}

func TestCLBBitCoordinatesDistinct(t *testing.T) {
	// Property: distinct (row, col, localBit) never map to the same
	// configuration bit.
	p := MustByName("XCV50")
	seen := map[BitCoord]int{}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			for b := 0; b < CLBLocalBits; b++ {
				bc := p.CLBBit(r, c, b)
				key := r<<20 | c<<10 | b
				if prev, dup := seen[bc]; dup {
					t.Fatalf("bit collision: %v claimed by %x and %x", bc, prev, key)
				}
				seen[bc] = key
			}
		}
	}
}

func TestCLBBitStaysInColumn(t *testing.T) {
	p := MustByName("XCV100")
	f := func(r, c, b uint16) bool {
		row := int(r) % p.Rows
		col := int(c) % p.Cols
		bit := int(b) % CLBLocalBits
		bc := p.CLBBit(row, col, bit)
		if bc.FAR.BlockType() != BlockCLB || bc.FAR.Major() != p.CLBMajor(col) {
			return false
		}
		return bc.Bit >= 18 && bc.Bit < 18*(p.Rows+1) && bc.Bit < p.FrameBits()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireNameRoundTrip(t *testing.T) {
	for w := 0; w < WiresPerTile; w++ {
		name := WireName(w)
		back, ok := WireByName(name)
		if !ok || back != w {
			t.Fatalf("wire %d name %q round-trips to %d, %v", w, name, back, ok)
		}
	}
}

func TestNodeNameRoundTrip(t *testing.T) {
	p := MustByName("XCV50")
	nodes := []NodeID{
		p.TileWireNode(2, 22, SingleWire(DirE, 2)),
		p.TileWireNode(0, 0, OutWire(1, OutXQ)),
		p.TileWireNode(p.Rows-1, p.Cols-1, InPinWire(0, PinG4)),
		p.RowLongNode(2, 0),
		p.ColLongNode(4, 1),
		p.GlobalNode(0),
		p.PadNodeI(Pad{EdgeL, 2}),
		p.PadNodeO(Pad{EdgeT, 11}),
	}
	for _, n := range nodes {
		name := p.NodeName(n)
		back, err := p.ParseNode(name, -1, -1)
		if err != nil {
			t.Fatalf("ParseNode(%q): %v", name, err)
		}
		if back != n {
			t.Fatalf("node %d -> %q -> %d", n, name, back)
		}
	}
}

func TestParseNodeUnqualified(t *testing.T) {
	p := MustByName("XCV50")
	n, err := p.ParseNode("E3", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.TileWireNode(4, 7, SingleWire(DirE, 3)) {
		t.Fatalf("unqualified wire resolved to wrong node: %s", p.NodeName(n))
	}
	if _, err := p.ParseNode("E3", -1, -1); err == nil {
		t.Fatal("unqualified wire without anchor should error")
	}
}

func TestPadHelpers(t *testing.T) {
	p := MustByName("XCV50")
	if p.NumPads() != 2*p.Rows+2*p.Cols {
		t.Fatalf("NumPads = %d", p.NumPads())
	}
	for i := 0; i < p.NumPads(); i++ {
		pd := p.padAt(i)
		if p.padIndex(pd) != i {
			t.Fatalf("pad index round-trip broken at %d (%+v)", i, pd)
		}
		name := pd.Name()
		back, err := ParsePad(name)
		if err != nil || back != pd {
			t.Fatalf("pad name round-trip: %q -> %+v, %v", name, back, err)
		}
	}
	// Corner tile has two pads.
	if got := len(p.PadsOfTile(0, 0)); got != 2 {
		t.Fatalf("corner tile pads = %d, want 2", got)
	}
	if got := len(p.PadsOfTile(1, 1)); got != 0 {
		t.Fatalf("interior tile pads = %d, want 0", got)
	}
}

func TestPadModeBitsDistinct(t *testing.T) {
	p := MustByName("XCV50")
	seen := map[BitCoord]string{}
	for i := 0; i < p.NumPads(); i++ {
		pd := p.padAt(i)
		for ctl := 0; ctl < 3; ctl++ {
			bc := p.PadModeBit(pd, ctl)
			if !p.ValidFAR(bc.FAR) || bc.Bit >= p.FrameBits() {
				t.Fatalf("pad %s ctl %d: bad coordinate %v", pd.Name(), ctl, bc)
			}
			if prev, dup := seen[bc]; dup {
				t.Fatalf("pad bit collision at %v: %s vs %s/%d", bc, prev, pd.Name(), ctl)
			}
			seen[bc] = pd.Name()
		}
	}
}

func TestTilePIPBudget(t *testing.T) {
	p := MustByName("XCV50")
	for _, tile := range [][2]int{{0, 0}, {0, 1}, {3, 5}, {p.Rows - 1, p.Cols - 1}, {p.Rows / 2, p.Cols / 2}} {
		pips := p.TilePIPs(tile[0], tile[1])
		if len(pips) == 0 || len(pips) > pipBitsBudget {
			t.Fatalf("tile %v: %d PIPs (budget %d)", tile, len(pips), pipBitsBudget)
		}
		// Catalog indices must be dense and bits valid.
		for i, pip := range pips {
			if pip.CatalogIdx != i {
				t.Fatalf("tile %v pip %d has CatalogIdx %d", tile, i, pip.CatalogIdx)
			}
			bc := p.PIPBit(pip)
			if !p.ValidFAR(bc.FAR) {
				t.Fatalf("pip %s: invalid bit %v", p.pipString(pip), bc)
			}
		}
	}
}

func TestTilePIPsNoDuplicateEdges(t *testing.T) {
	p := MustByName("XCV50")
	type edge struct{ s, d NodeID }
	for _, tile := range [][2]int{{0, 0}, {4, 4}, {p.Rows - 1, 0}} {
		seen := map[edge]bool{}
		for _, pip := range p.TilePIPs(tile[0], tile[1]) {
			e := edge{pip.Src, pip.Dst}
			if seen[e] {
				t.Fatalf("duplicate pip %s", p.pipString(pip))
			}
			seen[e] = true
		}
	}
}

func TestGraphAdjacency(t *testing.T) {
	p := MustByName("XCV50")
	g := NewGraph(p)
	if g.NumPIPs() == 0 {
		t.Fatal("empty graph")
	}
	// Every pip reachable from adjacency must be in its owning tile catalog.
	out := g.From(p.TileWireNode(3, 3, OutWire(0, OutX)))
	if len(out) == 0 {
		t.Fatal("slice output has no fanout")
	}
	for _, pip := range out {
		if pip.Src != p.TileWireNode(3, 3, OutWire(0, OutX)) {
			t.Fatalf("adjacency returned foreign pip %s", p.pipString(pip))
		}
		if got, ok := p.FindPIP(pip.Row, pip.Col, pip.Src, pip.Dst); !ok || got.CatalogIdx != pip.CatalogIdx {
			t.Fatalf("pip %s not found in catalog", p.pipString(pip))
		}
	}
	// Graphs are cached.
	if NewGraph(p) != g {
		t.Fatal("graph not cached")
	}
}

func TestGlobalFanout(t *testing.T) {
	p := MustByName("XCV50")
	g := NewGraph(p)
	// Global 0 must reach every tile's CLK pins.
	fan := g.From(p.GlobalNode(0))
	wantMin := p.Rows * p.Cols * 2 // two CLK pins per tile at minimum
	if len(fan) < wantMin {
		t.Fatalf("global fanout %d < %d", len(fan), wantMin)
	}
}

func TestTileNameRoundTrip(t *testing.T) {
	r, c, err := ParseTileName(TileName(2, 22))
	if err != nil || r != 2 || c != 22 {
		t.Fatalf("tile name round-trip: %d %d %v", r, c, err)
	}
	for _, bad := range []string{"", "R3", "C4", "R0C1", "RxCy", "3C4"} {
		if _, _, err := ParseTileName(bad); err == nil {
			t.Errorf("ParseTileName(%q) should fail", bad)
		}
	}
}

func TestBRAMGeometry(t *testing.T) {
	for _, p := range All() {
		if p.BRAMBlocksPerColumn() != p.Rows/4 {
			t.Errorf("%s: blocks per column %d", p.Name, p.BRAMBlocksPerColumn())
		}
		if p.BRAMBits() != p.NumBRAMBlocks()*BRAMBitsPerBlock {
			t.Errorf("%s: BRAM capacity inconsistent", p.Name)
		}
		// All content bits of the top and bottom blocks must fit the frame.
		for _, block := range []int{0, p.BRAMBlocksPerColumn() - 1} {
			for _, i := range []int{0, BRAMBitsPerBlock - 1} {
				bc := p.BRAMBit(1, block, i)
				if !p.ValidFAR(bc.FAR) || bc.Bit >= p.FrameBits() {
					t.Errorf("%s: BRAM bit (b=%d i=%d) out of frame: %v", p.Name, block, i, bc)
				}
			}
		}
	}
}

func TestBRAMBitsDistinct(t *testing.T) {
	p := MustByName("XCV50")
	seen := map[BitCoord]bool{}
	for side := 0; side < 2; side++ {
		for block := 0; block < p.BRAMBlocksPerColumn(); block++ {
			for i := 0; i < BRAMBitsPerBlock; i += 7 { // sampled
				bc := p.BRAMBit(side, block, i)
				if seen[bc] {
					t.Fatalf("BRAM bit collision at %v", bc)
				}
				seen[bc] = true
				if bc.FAR.BlockType() != BlockBRAM || bc.FAR.Major() != side {
					t.Fatalf("BRAM bit in wrong column: %v", bc)
				}
			}
		}
	}
}

func TestBRAMColumnFARs(t *testing.T) {
	p := MustByName("XCV50")
	fars := p.BRAMColumnFARs(1)
	if len(fars) != FramesBRAMCol {
		t.Fatalf("column FARs = %d, want %d", len(fars), FramesBRAMCol)
	}
	for _, f := range fars {
		if f.BlockType() != BlockBRAM || f.Major() != 1 {
			t.Fatalf("stray FAR %v", f)
		}
	}
}

func TestDescribeNode(t *testing.T) {
	p := MustByName("XCV50")
	cases := []struct {
		node NodeID
		kind NodeKind
	}{
		{p.TileWireNode(3, 5, SingleWire(DirE, 2)), NodeWire},
		{p.RowLongNode(2, 1), NodeRowLong},
		{p.ColLongNode(7, 0), NodeColLong},
		{p.GlobalNode(3), NodeGlobal},
		{p.PadNodeI(Pad{EdgeL, 4}), NodePadI},
		{p.PadNodeO(Pad{EdgeB, 9}), NodePadO},
		{NodeID(-1), NodeInvalid},
		{NodeID(p.NumNodes()), NodeInvalid},
	}
	for _, tc := range cases {
		d := p.DescribeNode(tc.node)
		if d.Kind != tc.kind {
			t.Errorf("DescribeNode(%d) = %v, want kind %v", tc.node, d.Kind, tc.kind)
		}
	}
	// Field round trips.
	d := p.DescribeNode(p.TileWireNode(3, 5, SingleWire(DirE, 2)))
	if d.A != 3 || d.B != 5 || d.C != SingleWire(DirE, 2) {
		t.Fatalf("wire desc = %+v", d)
	}
	d = p.DescribeNode(p.PadNodeI(Pad{EdgeL, 4}))
	if d.Pad != (Pad{EdgeL, 4}) {
		t.Fatalf("pad desc = %+v", d)
	}
	d = p.DescribeNode(p.GlobalNode(3))
	if d.C != 3 {
		t.Fatalf("global desc = %+v", d)
	}
}

func TestGraphFindPIP(t *testing.T) {
	p := MustByName("XCV50")
	g := NewGraph(p)
	pips := p.TilePIPs(4, 4)
	for _, pip := range pips[:20] {
		got, ok := g.FindPIP(pip.Row, pip.Col, pip.Src, pip.Dst)
		if !ok || got.CatalogIdx != pip.CatalogIdx {
			t.Fatalf("graph lookup failed for catalog pip %d", pip.CatalogIdx)
		}
	}
	if _, ok := g.FindPIP(0, 0, p.GlobalNode(0), p.GlobalNode(1)); ok {
		t.Fatal("phantom pip found")
	}
}
