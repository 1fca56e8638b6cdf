// Package device models the Xilinx Virtex (2.5 V, XCV series) FPGA family at
// the level needed for partial-bitstream generation: part geometry, the
// frame-addressed configuration memory organisation (per XAPP151), a
// deterministic mapping from named logic/routing resources to configuration
// bits, and an island-style routing graph.
//
// Geometry and total configuration-bit counts are calibrated against the
// Virtex 2.5 V datasheet (DS003). The intra-frame bit assignment is this
// package's own deterministic layout (see layout.go); it is synthetic but
// fixed and invertible, which is all the CAD flow and the JPG tool require.
package device

import (
	"fmt"
	"sort"
)

// Part describes one member of the Virtex family.
type Part struct {
	// Name is the Xilinx part name, e.g. "XCV300".
	Name string
	// Rows and Cols give the CLB array dimensions (CLB rows x CLB columns).
	Rows, Cols int
	// DatasheetConfigBits is the total number of configuration bits the
	// Virtex 2.5V datasheet lists for this part. Our frame model must agree
	// with this to within 1%; a test enforces it.
	DatasheetConfigBits int
}

// Frame counts per column type, per XAPP151 "Virtex Series Configuration
// Architecture User Guide".
const (
	FramesClockCol   = 8  // the single center clock column
	FramesCLBCol     = 48 // each CLB column
	FramesIOBCol     = 54 // each of the two edge IOB columns
	FramesBRAMIntCol = 27 // each of the two block-RAM interconnect columns
	FramesBRAMCol    = 64 // each of the two block-RAM content columns
)

// parts is the family catalog, smallest to largest.
var parts = []*Part{
	{"XCV50", 16, 24, 559200},
	{"XCV100", 20, 30, 781216},
	{"XCV150", 24, 36, 1040096},
	{"XCV200", 28, 42, 1335840},
	{"XCV300", 32, 48, 1751808},
	{"XCV400", 40, 60, 2546048},
	{"XCV600", 48, 72, 3607968},
	{"XCV800", 56, 84, 4715616},
	{"XCV1000", 64, 96, 6127744},
}

var partsByName = func() map[string]*Part {
	m := make(map[string]*Part, len(parts))
	for _, p := range parts {
		m[p.Name] = p
	}
	return m
}()

// ByName returns the named part, or an error if the part is unknown.
func ByName(name string) (*Part, error) {
	p, ok := partsByName[name]
	if !ok {
		return nil, fmt.Errorf("device: unknown part %q (known: %v)", name, PartNames())
	}
	return p, nil
}

// MustByName is ByName for parts known at compile time; it panics on error.
func MustByName(name string) *Part {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns the family catalog ordered smallest to largest.
func All() []*Part {
	out := make([]*Part, len(parts))
	copy(out, parts)
	return out
}

// PartNames returns the sorted names of all known parts.
func PartNames() []string {
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// FrameWords returns the length of one configuration frame in 32-bit words.
// Each of the Rows CLB rows owns an 18-bit stripe in every frame of its
// column; two extra stripes cover the top and bottom IOB rows, and one pad
// word terminates the frame (mirroring the real device's frame padding).
func (p *Part) FrameWords() int {
	bits := 18 * (p.Rows + 2)
	return (bits+31)/32 + 1
}

// FrameBits returns the frame length in bits (including the pad word).
func (p *Part) FrameBits() int { return p.FrameWords() * 32 }

// NumCLBs returns the total number of CLBs in the array.
func (p *Part) NumCLBs() int { return p.Rows * p.Cols }

// NumSlices returns the total number of slices (2 per CLB).
func (p *Part) NumSlices() int { return 2 * p.NumCLBs() }

// NumLUTs returns the total number of 4-input LUTs (4 per CLB).
func (p *Part) NumLUTs() int { return 4 * p.NumCLBs() }

// TotalFrames returns the number of configuration frames across all block
// types and columns.
func (p *Part) TotalFrames() int {
	_, _, _, _, total := p.frameStarts()
	return total
}

// ConfigBits returns the total configuration payload in bits under our frame
// model. It must agree with DatasheetConfigBits to within 1%.
func (p *Part) ConfigBits() int { return p.TotalFrames() * p.FrameBits() }

func (p *Part) String() string {
	return fmt.Sprintf("%s (%dx%d CLBs, %d frames x %d words)",
		p.Name, p.Rows, p.Cols, p.TotalFrames(), p.FrameWords())
}
