package xdl

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
	"repro/internal/route"
)

// counterXDL is the XDL of a placed and routed 4-bit counter: the valid
// input the mutation test and the fuzz target start from.
func counterXDL(t testing.TB) string {
	t.Helper()
	nl, err := designs.Standalone(designs.Counter{Bits: 4}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	valid, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	return valid
}

// TestParseNeverPanicsOnMutations feeds randomly mutated valid XDL into the
// parser and loader: every outcome must be a clean error or a valid design,
// never a panic. This guards the JPG tool's main untrusted input path.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	valid := counterXDL(t)
	rng := rand.New(rand.NewSource(99))
	mutate := func(s string) string {
		b := []byte(s)
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // flip a byte
				if len(b) > 0 {
					b[rng.Intn(len(b))] = byte(rng.Intn(256))
				}
			case 1: // delete a chunk
				if len(b) > 10 {
					at := rng.Intn(len(b) - 10)
					b = append(b[:at], b[at+rng.Intn(10):]...)
				}
			case 2: // duplicate a chunk
				if len(b) > 10 {
					at := rng.Intn(len(b) - 10)
					chunk := append([]byte(nil), b[at:at+rng.Intn(10)]...)
					b = append(b[:at], append(chunk, b[at:]...)...)
				}
			case 3: // truncate
				if len(b) > 1 {
					b = b[:rng.Intn(len(b))]
				}
			}
		}
		return string(b)
	}

	for trial := 0; trial < 400; trial++ {
		text := mutate(valid)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: parser panicked: %v\ninput prefix: %.120q", trial, r, text)
				}
			}()
			if loaded, err := Load(text); err == nil {
				// A mutation that still parses must yield a structurally
				// valid design.
				if err := loaded.CheckPlacement(); err != nil {
					t.Fatalf("trial %d: loaded design fails placement check: %v", trial, err)
				}
			}
		}()
	}
}

// FuzzLoad extends the mutation test to coverage-guided input: XDL text, as
// a /v1/generate request carries it, either fails to load or loads into a
// design that passes the placement check. It never panics.
func FuzzLoad(f *testing.F) {
	f.Add(counterXDL(f))
	f.Fuzz(func(t *testing.T, text string) {
		loaded, err := Load(text)
		if err != nil {
			return
		}
		if err := loaded.CheckPlacement(); err != nil {
			t.Fatalf("loaded design fails placement check: %v", err)
		}
	})
}
