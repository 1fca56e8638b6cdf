package bitfile

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestWrapParseRoundTrip(t *testing.T) {
	h := Header{Design: "base.ncd", Part: "XCV50", Date: "2002/04/15", Time: "12:34:56"}
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0x99, 0x55, 0x66, 1, 2, 3, 4}
	file := Wrap(h, data)
	h2, data2, err := Parse(file)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("header round trip: %+v != %+v", h2, h)
	}
	if !bytes.Equal(data2, data) {
		t.Fatal("data round trip lost bytes")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(design, part string, data []byte) bool {
		// NUL bytes cannot appear in header strings (NUL-terminated fields).
		design = sanitize(design)
		part = sanitize(part)
		h := Header{Design: design, Part: part, Date: "d", Time: "t"}
		h2, data2, err := Parse(Wrap(h, data))
		return err == nil && h2 == h && bytes.Equal(data2, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	if len(s) > 1000 {
		s = s[:1000]
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != 0 {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func TestIsBitFileAndUnwrap(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0x99, 0x55, 0x66}
	if IsBitFile(raw) {
		t.Fatal("raw stream detected as .bit")
	}
	out, h, err := Unwrap(raw)
	if err != nil || !bytes.Equal(out, raw) || h.Part != "" {
		t.Fatal("raw passthrough broken")
	}
	wrapped := Wrap(Header{Design: "x", Part: "XCV300"}, raw)
	if !IsBitFile(wrapped) {
		t.Fatal(".bit not detected")
	}
	out, h, err = Unwrap(wrapped)
	if err != nil || !bytes.Equal(out, raw) || h.Part != "XCV300" {
		t.Fatalf("unwrap broken: %+v %v", h, err)
	}
}

func TestParseErrors(t *testing.T) {
	good := Wrap(Header{Design: "a", Part: "b", Date: "c", Time: "d"}, []byte{1, 2, 3})
	cases := map[string][]byte{
		"empty":           {},
		"bad preamble":    append([]byte{9}, good[1:]...),
		"truncated field": good[:len(preamble)+2],
		"truncated data":  good[:len(good)-2],
		"no data field":   good[:len(preamble)],
	}
	for name, data := range cases {
		if _, _, err := Parse(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Unknown field key.
	bad := append([]byte(nil), good...)
	bad[len(preamble)] = 'z'
	if _, _, err := Parse(bad); err == nil {
		t.Error("unknown key accepted")
	}
	// A string field whose counted last byte is not NUL: "xyz" with length
	// 3 would otherwise read as "xy".
	unterminated := append([]byte(nil), preamble...)
	unterminated = append(unterminated, 'a', 0, 3, 'x', 'y', 'z', 'e', 0, 0, 0, 0)
	if _, _, err := Parse(unterminated); !errors.Is(err, ErrUnterminated) {
		t.Errorf("unterminated field: error %v, want ErrUnterminated", err)
	}
}

// FuzzParse: Parse never panics, and a file it accepts re-wraps to bytes
// that parse to the same header and data.
func FuzzParse(f *testing.F) {
	f.Add(Wrap(Header{Design: "base.ncd", Part: "XCV50", Date: "2002/04/15", Time: "12:34:56"}, []byte{1, 2, 3, 4}))
	f.Add(Wrap(Header{}, nil))
	f.Add(append(append([]byte(nil), preamble...), 'a', 0, 3, 'x', 'y', 'z'))
	f.Add(append(append([]byte(nil), preamble...), 'e', 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		h, data, err := Parse(file)
		if err != nil {
			return
		}
		h2, data2, err := Parse(Wrap(h, data))
		if err != nil {
			t.Fatalf("re-wrapped %+v does not parse: %v", h, err)
		}
		if h2 != h || !bytes.Equal(data2, data) {
			t.Fatalf("re-wrap round trip: %+v, %d bytes; want %+v, %d bytes", h2, len(data2), h, len(data))
		}
	})
}
