// Package bitfile implements the Xilinx .bit file container: the small
// tagged header (design name, part, date, time) that wraps raw configuration
// data in the files the Xilinx tools exchange. The format is the well-known
// public one: a fixed 13-byte preamble, then length-prefixed fields keyed
// 'a' (design name), 'b' (part), 'c' (date), 'd' (time) and 'e' (data
// length + payload).
package bitfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// preamble is the fixed field-0 header every .bit file starts with.
var preamble = []byte{
	0x00, 0x09, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0, 0x00, 0x00, 0x01,
}

// ErrUnterminated reports a header string field whose last byte is not the
// NUL terminator its length counts.
var ErrUnterminated = errors.New("bitfile: header field not NUL-terminated")

// Header carries a .bit file's metadata.
type Header struct {
	Design string // field 'a': design name (conventionally "name.ncd")
	Part   string // field 'b': part name, e.g. "XCV50"
	Date   string // field 'c'
	Time   string // field 'd'
}

// Wrap encloses raw configuration data in a .bit container.
func Wrap(h Header, data []byte) []byte {
	var b bytes.Buffer
	b.Write(preamble)
	writeStr := func(key byte, s string) {
		b.WriteByte(key)
		// Strings are NUL-terminated, with a 16-bit length.
		binary.Write(&b, binary.BigEndian, uint16(len(s)+1))
		b.WriteString(s)
		b.WriteByte(0)
	}
	writeStr('a', h.Design)
	writeStr('b', h.Part)
	writeStr('c', h.Date)
	writeStr('d', h.Time)
	b.WriteByte('e')
	binary.Write(&b, binary.BigEndian, uint32(len(data)))
	b.Write(data)
	return b.Bytes()
}

// Parse splits a .bit container into its header and raw configuration data.
// The returned data slice aliases the input.
func Parse(file []byte) (Header, []byte, error) {
	var h Header
	if len(file) < len(preamble)+2 || !bytes.Equal(file[:len(preamble)], preamble) {
		return h, nil, fmt.Errorf("bitfile: missing .bit preamble")
	}
	rest := file[len(preamble):]
	readStr := func() (string, error) {
		if len(rest) < 2 {
			return "", fmt.Errorf("bitfile: truncated field length")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n < 1 || len(rest) < n {
			return "", fmt.Errorf("bitfile: truncated field body")
		}
		if rest[n-1] != 0 {
			return "", ErrUnterminated
		}
		s := rest[:n-1] // strip NUL
		rest = rest[n:]
		return string(s), nil
	}
	for len(rest) > 0 {
		key := rest[0]
		rest = rest[1:]
		switch key {
		case 'a', 'b', 'c', 'd':
			s, err := readStr()
			if err != nil {
				return h, nil, err
			}
			switch key {
			case 'a':
				h.Design = s
			case 'b':
				h.Part = s
			case 'c':
				h.Date = s
			case 'd':
				h.Time = s
			}
		case 'e':
			if len(rest) < 4 {
				return h, nil, fmt.Errorf("bitfile: truncated data length")
			}
			n := int(binary.BigEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < n {
				return h, nil, fmt.Errorf("bitfile: data field shorter than declared (%d < %d)", len(rest), n)
			}
			return h, rest[:n], nil
		default:
			return h, nil, fmt.Errorf("bitfile: unknown field key %#02x", key)
		}
	}
	return h, nil, fmt.Errorf("bitfile: no data field")
}

// IsBitFile reports whether the bytes look like a .bit container (as
// opposed to raw configuration data, which starts with dummy/sync words).
func IsBitFile(file []byte) bool {
	return len(file) >= len(preamble) && bytes.Equal(file[:len(preamble)], preamble)
}

// Unwrap returns the raw configuration data whether or not the input is
// wrapped: .bit containers are parsed, anything else is returned as-is.
func Unwrap(file []byte) ([]byte, Header, error) {
	if !IsBitFile(file) {
		return file, Header{}, nil
	}
	h, data, err := Parse(file)
	return data, h, err
}
