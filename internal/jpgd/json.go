package jpgd

// One-pass JSON for the /v1 endpoints. A generate body carries the whole
// base bitstream as about 93 KB of base64, and its response carries the
// partial as base64 again. encoding/json scans such a body twice (validation,
// then decode) and re-scans the compact response to indent it. The functions
// here walk the bytes once, jumping over string contents with
// bytes.IndexByte, and they agree with encoding/json on everything they
// accept: FuzzDecodeRequest and FuzzIndentJSON are the differential checks.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"unicode/utf8"
)

// flatField is one member of a flat request object: its JSON name and the
// string or bool it decodes into. A string member with raw set leaves a
// literal that is its own text (see unquote) where it lies in the body:
// *raw aliases those bytes and str is not set.
type flatField struct {
	name string
	str  *string
	raw  *[]byte
	flag *bool
}

// decodeRequest decodes a flat request body into *v: in one pass when
// decodeFlat accepts the body, with decodeJSON otherwise, so a rejected body
// keeps decodeJSON's 400 and its message. It names the decoder that answered.
func decodeRequest[T any](body []byte, v *T, fields []flatField) (decoder string, err error) {
	if decodeFlat(body, fields) {
		return "one-pass", nil
	}
	var zero T
	*v = zero // a declined body may have set some fields
	for _, f := range fields {
		if f.raw != nil {
			*f.raw = nil
		}
	}
	return "json", decodeJSON(body, v)
}

// decodeFlat decodes body, one JSON object whose members are strings or
// booleans named in fields, into the fields' targets. It declines (returns
// false) everything else: unknown, case-folded, escaped or duplicate keys,
// null, numbers, nested values, a byte-order mark and trailing data.
func decodeFlat(body []byte, fields []flatField) bool {
	var seen uint64
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return skipSpace(body, i+1) == len(body)
	}
	for {
		if i == len(body) || body[i] != '"' {
			return false
		}
		end := quoteEnd(body, i)
		if end < 0 {
			return false
		}
		k := -1
		for j := range fields {
			if string(body[i+1:end-1]) == fields[j].name {
				k = j
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if i = skipSpace(body, end); i == len(body) || body[i] != ':' {
			return false
		}
		i = skipSpace(body, i+1)
		f, val := fields[k], body[i:]
		switch {
		case f.str != nil && len(val) > 0 && val[0] == '"':
			end := quoteEnd(val, 0)
			if end < 0 {
				return false
			}
			if text := val[1 : end-1]; f.raw != nil && ownText(text) {
				*f.raw = text
			} else if !unquote(val[:end], f.str) {
				return false
			}
			i += end
		case f.flag != nil && bytes.HasPrefix(val, []byte("true")):
			*f.flag = true
			i += len("true")
		case f.flag != nil && bytes.HasPrefix(val, []byte("false")):
			*f.flag = false
			i += len("false")
		default:
			return false
		}
		if i = skipSpace(body, i); i == len(body) {
			return false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return skipSpace(body, i+1) == len(body)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// quoteEnd returns the index just past the JSON string that opens at b[i],
// or -1 when it is not closed. It jumps from quote to quote and skips one
// that an odd run of backslashes escapes.
func quoteEnd(b []byte, i int) int {
	for j := i + 1; ; j++ {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			return -1
		}
		j += k
		n := 0
		for b[j-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return j + 1
		}
	}
}

// unquote sets *dst to the string the JSON string literal raw holds. A
// literal with no backslash, no control byte and valid UTF-8 is its own
// bytes; any other is handed to json.Unmarshal, so escapes and invalid UTF-8
// decode exactly as encoding/json decodes them. It reports false for a
// literal encoding/json rejects.
func unquote(raw []byte, dst *string) bool {
	if s := raw[1 : len(raw)-1]; ownText(s) {
		*dst = string(s)
		return true
	}
	return json.Unmarshal(raw, dst) == nil
}

// ownText reports whether the contents s of a JSON string literal are the
// string's text: no backslash, no control byte, valid UTF-8.
func ownText(s []byte) bool {
	return bytes.IndexByte(s, '\\') < 0 && plainText(s)
}

// plainText reports whether s holds no byte below 0x20 and is valid UTF-8.
// It tests eight bytes x at a time: (x - 0x2020…20) &^ x has a high bit set
// exactly when some byte of x is below 0x20 (the lowest such byte borrows
// and has no high bit of its own; without one, nothing borrows).
func plainText(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	var acc uint64
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		if (x-0x20*ones)&^x&highs != 0 {
			return false
		}
		acc |= x
	}
	for ; i < len(s); i++ {
		if s[i] < 0x20 {
			return false
		}
		acc |= uint64(s[i])
	}
	return acc&highs == 0 || utf8.Valid(s)
}

// indentJSON writes src, one compact JSON value as json.Encoder writes it,
// to dst indented exactly as json.Encoder.SetIndent("", "  ") indents it:
// each string is copied whole, punctuation is spaced as json.Indent spaces
// it, and empty objects and arrays stay {} and [].
func indentJSON(dst *bytes.Buffer, src []byte) {
	dst.Grow(len(src) + len(src)/8)
	depth := 0
	open := false // after '{' or '[': the line break waits for what follows
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open {
			open = false
			if c == '}' || c == ']' {
				dst.WriteByte(c)
				continue
			}
			depth++
			newline(dst, depth)
		}
		switch c {
		case '"':
			end := quoteEnd(src, i)
			dst.Write(src[i:end])
			i = end - 1
		case '{', '[':
			dst.WriteByte(c)
			open = true
		case '}', ']':
			depth--
			newline(dst, depth)
			dst.WriteByte(c)
		case ',':
			dst.WriteByte(c)
			newline(dst, depth)
		case ':':
			dst.WriteString(": ")
		default:
			dst.WriteByte(c)
		}
	}
}

// newline starts an indented line at the given depth.
func newline(dst *bytes.Buffer, depth int) {
	dst.WriteByte('\n')
	for ; depth > 0; depth-- {
		dst.WriteString("  ")
	}
}
