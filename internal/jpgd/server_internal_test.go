package jpgd

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to decodeJSON, the decode every
// /v1 endpoint shares, once for each request type. It must never panic,
// must reject only with a 400, and any body it accepts must re-marshal and
// decode to an equal value.
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeRoundTrip(t, body, new(GenerateRequest))
		decodeRoundTrip(t, body, new(BuildRequest))
		decodeRoundTrip(t, body, new(VerifyRequest))
	})
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
