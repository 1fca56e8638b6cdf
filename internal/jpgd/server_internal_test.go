package jpgd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/flow"
)

// FuzzDecodeRequest feeds arbitrary bytes to decodeJSON, the decode every
// /v1 endpoint shares, once for each request type. It must never panic,
// must reject only with a 400, and any body it accepts must re-marshal and
// decode to an equal value. It also holds the one-pass decoder to
// encoding/json for the request types that use it: whatever decodeFlat
// accepts, decodeJSON accepts with an equal value, and decodeRequest answers
// every body as decodeJSON does.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"base":"AAAA","xdl":"design \"d\" XCV50;","ucf":"INST \"u1/*\" AREA_GROUP = \"AG_u1\";",` +
			`"name":"u1_lfsr","strict":true,"compress":true,"delta":true,"verify":true,` +
			`"download":{"retries":3,"timeout_ms":50,"verify":true,"faults":"first=1,mode=error,seed=7"}}`,
		`{"part":"XCV50","instances":"u1/=counter:bits=6;u2/=sbox:n=8,seed=3","seed":1,` +
			`"variant":{"prefix":"u1/","gen":"lfsr:bits=6","seed":2,"strict":true,"compress":true,"delta":true}}`,
		`{"bitstream":"qpmZZg==","base":"AAAA"}`,
		`null`,
		// TestIngestionHardening's bodies.
		"",
		"   \n",
		`{"xdl":"x"}{"xdl":"y"}`,
		`{"xdl":"x"} garbage`,
		`{"bogus":1}`,
		`{"base":"` + strings.Repeat("A", 512) + `"}`,
		// The one-pass decoder's declines: an escaped, a case-folded and a
		// duplicate key, null, control bytes (in a short string and inside
		// an eight-byte word) and a BOM.
		`{"\u0062ase":"AAAA","xdl":"x","ucf":"u"}`,
		`{"BASE":"AAAA","xdl":"x","ucf":"u"}`,
		`{"base":"AAAA","base":"BBBB","strict":true,"strict":false}`,
		`{"base":null,"xdl":"x","ucf":"u"}`,
		"{\"name\":\"a\x01b\"}",
		"{\"name\":\"0123456\x1f89abcdef\"}",
		"\xef\xbb\xbf{\"base\":\"AAAA\"}",
		// What it accepts: invalid UTF-8, U+2028 raw and escaped, escapes,
		// and whitespace.
		"{\"name\":\"a\xff\xfeb\"}",
		"{\"name\":\"a\u2028b\",\"xdl\":\"\\u2028\\\\\\\"\\n<\"}",
		" {\"strict\" : true ,\"delta\":false,\"ucf\":\"\"}\r\n",
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(fig4Body(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeRoundTrip(t, body, new(GenerateRequest))
		decodeRoundTrip(t, body, new(BuildRequest))
		decodeRoundTrip(t, body, new(VerifyRequest))
		decodeDifferential(t, body, func(r *GenerateRequest) []flatField { return r.fields(nil) })
		decodeDifferential(t, body, (*VerifyRequest).fields)
		decodeBaseInPlace(t, body)
	})
}

// decodeBaseInPlace holds decodeGenerate's read of a body, which leaves the
// base text in the body when it can, to the read that copies it out: both
// answer alike, and the text left in place is the text copied.
func decodeBaseInPlace(t *testing.T, body []byte) {
	t.Helper()
	var copied, left GenerateRequest
	var text []byte
	_, errCopied := decodeRequest(body, &copied, copied.fields(nil))
	_, errLeft := decodeRequest(body, &left, left.fields(&text))
	if fmt.Sprint(errLeft) != fmt.Sprint(errCopied) {
		t.Fatalf("body %q: base left in place answers %v, copied %v", body, errLeft, errCopied)
	}
	if text != nil {
		if left.Base != "" {
			t.Fatalf("body %q: base both left in place and copied", body)
		}
		left.Base = string(text)
	}
	if errLeft == nil && !reflect.DeepEqual(left, copied) {
		t.Fatalf("body %q: base left in place decodes %+v, copied %+v", body, left, copied)
	}
}

// fig4Body is a real /v1/generate body: the Figure 4 base and a u1/ variant
// whose XDL carries newlines, quotes and '>' (escaped as \u003e).
func fig4Body(tb testing.TB) []byte {
	tb.Helper()
	ctx := context.Background()
	scenario := experiments.Fig4Scenario()
	var insts []designs.Instance
	for _, rs := range scenario {
		insts = append(insts, designs.Instance{Prefix: rs.Prefix, Gen: rs.Variants[0]})
	}
	base, err := flow.BuildBase(ctx, device.MustByName("XCV50"), insts, flow.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	v, err := flow.BuildVariant(ctx, base, "u1/", scenario[0].Variants[1], flow.Options{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(GenerateRequest{
		Base: base64.StdEncoding.EncodeToString(base.Bitstream), XDL: v.XDL, UCF: v.UCF,
		Name: "u1_lfsr", Strict: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeDifferential holds decodeFlat to decodeJSON on one body.
func decodeDifferential[T any](t *testing.T, body []byte, fields func(*T) []flatField) {
	t.Helper()
	var flat, slow, either T
	flatOK := decodeFlat(body, fields(&flat))
	slowErr := decodeJSON(body, &slow)
	if flatOK && slowErr != nil {
		t.Fatalf("%T: body %q decoded in one pass, but decodeJSON rejects it: %v", flat, body, slowErr)
	}
	if flatOK && !reflect.DeepEqual(flat, slow) {
		t.Fatalf("%T: body %q decodes in one pass to %+v, with decodeJSON to %+v", flat, body, flat, slow)
	}
	_, err := decodeRequest(body, &either, fields(&either))
	if fmt.Sprint(err) != fmt.Sprint(slowErr) {
		t.Fatalf("%T: body %q: decodeRequest answers %v, decodeJSON %v", flat, body, err, slowErr)
	}
	if err == nil && !reflect.DeepEqual(either, slow) {
		t.Fatalf("%T: body %q: decodeRequest decodes %+v, decodeJSON %+v", flat, body, either, slow)
	}
}

// FuzzIndentJSON holds the one-pass indent to encoding/json: for any value
// JSON can hold, its compact encoding indented by indentJSON is what
// json.Encoder writes with SetIndent("", "  "), byte for byte.
func FuzzIndentJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `0`, `"s"`, `{"a":[],"b":{},"c":[{}],"d":[[]]}`,
		`[1,-2.5e10,true,false,null,"x",{"k":"v"}]`,
		`{"q\"":"a\\","r":"\\\"\\","s":"\"\\\\\""}`,
		`{"html":"<a href=\"x\">&amp;</a>","sep":"\u2028\u2029","ctl":"\u0001\t\n"}`,
		"{\"bad\":\"\xff\xfe\"}",
		`{"deep":{"er":{"est":[1,[2,[3,{"x":{}}]]]}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var v any
		if json.Unmarshal(doc, &v) != nil {
			return
		}
		checkIndent(t, v)
	})
}

// TestIndentMatchesEncoder runs the indent check on every /v1 response type.
func TestIndentMatchesEncoder(t *testing.T) {
	partial := bytes.Repeat([]byte{0xaa, 0x99, 0x55, 0x66, '"', '\\'}, 100)
	for _, v := range []any{
		GenerateResponse{Part: "XCV50", Bitstream: partial, Bytes: len(partial), Frames: 48, FramesChanged: 40, Region: "C3:C5"},
		GenerateResponse{Part: "XCV50", Bitstream: partial, Download: &DownloadResult{Attempts: 2, FramesWritten: 48, ModelTimeUS: 17}},
		GenerateResponse{},
		BuildResponse{Part: "XCV50", BaseBytes: 78000, Regions: map[string]string{"u1/": "C3:C5", "u2/": "C9:C12"},
			Variant: &VariantResult{Bitstream: partial, Bytes: len(partial), Frames: 48, Region: "C3:C5"}},
		BuildResponse{Regions: map[string]string{}},
		VerifyResponse{Part: "XCV50", Packets: 12, Findings: []VerifyFinding{
			{Code: "crc-mismatch", Severity: "error", Offset: 40, Detail: `CRC "0x1234" <> want & more`},
			{Code: "w", Severity: "warning", Offset: -1, Detail: "a\\b\n"},
		}},
		VerifyResponse{OK: true, Started: true},
	} {
		checkIndent(t, v)
	}
}

// checkIndent compares indentJSON over v's compact encoding with
// json.Encoder's indented encoding of v.
func checkIndent(t *testing.T, v any) {
	t.Helper()
	var compact, got, want bytes.Buffer
	if err := json.NewEncoder(&compact).Encode(v); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	indentJSON(&got, compact.Bytes())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("indentJSON of %q:\n%q\nwant\n%q", compact.Bytes(), got.Bytes(), want.Bytes())
	}
}

func decodeRoundTrip[T any](t *testing.T, body []byte, v *T) {
	t.Helper()
	if err := decodeJSON(body, v); err != nil {
		var se *statusError
		if !errors.As(err, &se) || se.status != http.StatusBadRequest {
			t.Fatalf("%T: body %q rejected with %v, want a 400", v, body, err)
		}
		return
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: accepted body %q does not re-marshal: %v", v, body, err)
	}
	w := new(T)
	if err := decodeJSON(again, w); err != nil {
		t.Fatalf("%T: re-marshalled body %q rejected: %v", v, again, err)
	}
	if !reflect.DeepEqual(v, w) {
		t.Fatalf("%T: body %q decodes to %+v, its re-marshalled form to %+v", v, body, *v, *w)
	}
}
