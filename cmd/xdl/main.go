// Command xdl converts between the binary NCD physical database and the
// ASCII XDL form, mirroring the Xilinx xdl utility the JPG flow depends on
// (paper §3.2: "The XDL utility converts the corresponding .ncd file into an
// .xdl file"). Both directions go through the physical design, so a file
// that does not describe a valid placed design is refused, not converted.
//
// Usage:
//
//	xdl -ncd2xdl design.ncd -o design.xdl
//	xdl -xdl2ncd design.xdl -o design.ncd
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ncd"
	"repro/internal/phys"
	"repro/internal/xdl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xdl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("xdl", flag.ExitOnError)
	var (
		toXDL = fs.String("ncd2xdl", "", "NCD file to convert to XDL")
		toNCD = fs.String("xdl2ncd", "", "XDL file to convert to NCD")
		out   = fs.String("o", "", "output file (required)")
	)
	fs.Parse(args)
	if *out == "" || (*toXDL == "") == (*toNCD == "") {
		fs.Usage()
		return fmt.Errorf("exactly one of -ncd2xdl or -xdl2ncd, plus -o, is required")
	}
	var (
		d    *phys.Design
		data []byte
	)
	if *toXDL != "" {
		in, err := os.ReadFile(*toXDL)
		if err != nil {
			return err
		}
		if d, err = ncd.Unmarshal(in); err != nil {
			return err
		}
		text, err := xdl.Emit(d)
		if err != nil {
			return err
		}
		data = []byte(text)
	} else {
		in, err := os.ReadFile(*toNCD)
		if err != nil {
			return err
		}
		if d, err = xdl.Load(string(in)); err != nil {
			return err
		}
		if data, err = ncd.Marshal(d); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, design %q on %s)\n", *out, len(data), d.Netlist.Name, d.Part.Name)
	return nil
}
