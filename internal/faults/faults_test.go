package faults

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
	"repro/internal/xhwif"
)

func testConfig(t *testing.T, seed int64) (*frames.Memory, []byte) {
	t.Helper()
	p := device.MustByName("XCV50")
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		m.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
	}
	return m, bitstream.WriteFull(m)
}

func TestParseSpec(t *testing.T) {
	spec, err := Parse("nth=3,mode=truncate,seed=7,latency=2ms,first=1,prob=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, Nth: 3, First: 1, Prob: 0.25, Mode: ModeTruncate, Latency: 2 * time.Millisecond}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if s, err := Parse(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"nth", "mode=explode", "prob=2", "latency=-1ms,nth=1", "zz=1"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// FuzzParse: a fault spec, as $JPG_FAULTS or a /v1/generate download
// carries it, either parses or fails with an error; it never panics. Every
// accepted spec prints (String) to a spec string that parses back to a spec
// injecting the same faults.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"", "off", "nth=3,mode=truncate,seed=7,latency=2ms,first=1,prob=0.25",
		"nth=2,mode=error,seed=7", "first=1,mode=truncate,seed=3", "latency=1h", "prob=1e-300,mode=corrupt",
		" nth = 1 ,,", "zz=1", "prob=2", "nth=1,prob=NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, whose String %q does not parse: %v", text, spec, spec.String(), err)
		}
		if !sameFaults(spec, again) {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", text, spec, spec.String(), again)
		}
	})
}

// sameFaults reports whether two specs inject the same faults: both
// disabled, or equal once the default mode is filled in.
func sameFaults(a, b Spec) bool {
	if !a.Enabled() || !b.Enabled() {
		return a.Enabled() == b.Enabled()
	}
	for _, s := range []*Spec{&a, &b} {
		if s.Mode == "" {
			s.Mode = ModeError
		}
	}
	return a == b
}

func TestErrorModeIsDeterministic(t *testing.T) {
	_, bs := testConfig(t, 1)
	p := device.MustByName("XCV50")
	var gotA, gotB []bool
	for _, got := range []*[]bool{&gotA, &gotB} {
		in := Wrap(xhwif.NewBoard(p), Spec{Nth: 2, Seed: 5})
		for i := 0; i < 6; i++ {
			_, err := in.DownloadCtx(context.Background(), bs)
			*got = append(*got, err != nil)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("download %d: %v is not ErrInjected", i, err)
			}
		}
	}
	want := []bool{false, true, false, true, false, true}
	for i := range want {
		if gotA[i] != want[i] || gotB[i] != want[i] {
			t.Fatalf("injection pattern %v / %v, want %v", gotA, gotB, want)
		}
	}
	in := Wrap(xhwif.NewBoard(p), Spec{Nth: 2, Seed: 5})
	for i := 0; i < 6; i++ {
		in.DownloadCtx(context.Background(), bs)
	}
	if attempts, injected := in.Counts(); attempts != 6 || injected != 3 {
		t.Fatalf("counts %d/%d, want 3/6", injected, attempts)
	}
}

func TestTruncateModeRollsBack(t *testing.T) {
	mem, bs := testConfig(t, 2)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	mem2 := mem.Clone()
	mem2.SetBit(p.CLBBit(0, 0, 0), true)
	in := Wrap(board, Spec{First: 1, Mode: ModeTruncate, Seed: 3})
	if _, err := in.DownloadCtx(context.Background(), bitstream.WriteFull(mem2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !board.Readback().Equal(mem) {
		t.Fatal("truncated download corrupted the device")
	}
}

func TestCorruptModeRejectedByCRC(t *testing.T) {
	mem, bs := testConfig(t, 3)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	in := Wrap(board, Spec{First: 1, Mode: ModeCorrupt, Seed: 11})
	if _, err := in.DownloadCtx(context.Background(), bs); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !board.Readback().Equal(mem) {
		t.Fatal("corrupted download changed the device behind a reported error")
	}
}

// TestRetryConvergesUnderFaults is the acceptance-criteria scenario: with a
// deterministic failure on download attempt k, the reliability layer
// retries with backoff and the final configuration memory is byte-identical
// to a fault-free run; with retries exhausted, the device keeps its exact
// pre-download state.
func TestRetryConvergesUnderFaults(t *testing.T) {
	mem, bs := testConfig(t, 4)
	p := device.MustByName("XCV50")

	// Fault-free reference run.
	ref := xhwif.NewBoard(p)
	if _, err := ref.Download(bs); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{ModeError, ModeTruncate, ModeCorrupt} {
		board := xhwif.NewBoard(p)
		r := xhwif.NewReliable(Wrap(board, Spec{First: 2, Mode: mode, Seed: 9}), xhwif.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Nanosecond,
			MaxBackoff:  time.Nanosecond,
			Verify:      true,
		})
		ds, err := r.DownloadCtx(context.Background(), bs)
		if err != nil {
			t.Fatalf("mode=%s: %v", mode, err)
		}
		if ds.Attempts != 3 {
			t.Fatalf("mode=%s: succeeded on attempt %d, want 3", mode, ds.Attempts)
		}
		if !board.Readback().Equal(ref.Readback()) {
			t.Fatalf("mode=%s: faulted-then-retried run diverged from the fault-free run", mode)
		}
		if !board.Readback().Equal(mem) {
			t.Fatalf("mode=%s: final state differs from the written configuration", mode)
		}
	}

	// Exhausted retries: every attempt faulted, device untouched.
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	pre := board.Readback()
	mem2 := mem.Clone()
	mem2.SetBit(p.CLBBit(3, 3, 3), true)
	r := xhwif.NewReliable(Wrap(board, Spec{Nth: 1, Mode: ModeTruncate, Seed: 9}), xhwif.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Nanosecond,
		MaxBackoff:  time.Nanosecond,
		Verify:      true,
	})
	if _, err := r.DownloadCtx(context.Background(), bitstream.WriteFull(mem2)); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !board.Readback().Equal(pre) {
		t.Fatal("device state changed after a fully-faulted download (rollback broken)")
	}
}

// TestLatencyHonoursDeadline checks that injected link latency waits on the
// context: under a 20 ms download deadline, a one-hour latency ends the
// call with the deadline's error well within a second, and the device is
// never written. A fault due on that attempt never reached the device, so
// it is not counted as injected.
func TestLatencyHonoursDeadline(t *testing.T) {
	_, bs := testConfig(t, 6)
	p := device.MustByName("XCV50")
	for _, spec := range []Spec{{Latency: time.Hour}, {First: 1, Latency: time.Hour}} {
		board := xhwif.NewBoard(p)
		in := Wrap(board, spec)
		r := xhwif.NewReliable(in, xhwif.RetryPolicy{Timeout: 20 * time.Millisecond})
		waited := obs.GetHistogram("faults.injected_latency_ns")
		sum0 := waited.Sum()
		injected0 := obs.GetCounter("faults.injected").Value()
		t0 := time.Now()
		_, err := r.DownloadCtx(context.Background(), bs)
		if el := time.Since(t0); el >= time.Second {
			t.Fatalf("%+v: download returned after %v, want under 1s", spec, el)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%+v: err = %v, want DeadlineExceeded", spec, err)
		}
		if attempts, injected := in.Counts(); attempts != 1 || injected != 0 {
			t.Fatalf("%+v: injector saw %d attempts, %d injected; want 1 and 0", spec, attempts, injected)
		}
		if d := obs.GetCounter("faults.injected").Value() - injected0; d != 0 {
			t.Fatalf("%+v: faults.injected grew by %d for a fault cut short before the device", spec, d)
		}
		// The attempt ended at the call's own deadline: no retry, one abort.
		if retries, aborts, _ := r.Counts(); retries != 0 || aborts != 1 {
			t.Fatalf("%+v: Counts() = %d retries, %d aborts; want 0 and 1", spec, retries, aborts)
		}
		if d := time.Duration(waited.Sum() - sum0); d >= time.Second {
			t.Fatalf("%+v: injected latency recorded %v for a wait cut short at 20ms", spec, d)
		}
		if downloads, _, _ := board.Totals(); downloads != 0 || !board.Readback().Equal(frames.New(p)) {
			t.Fatalf("%+v: a download cut short by its deadline wrote the device", spec)
		}
	}
}

func TestInjectorForwardsReadback(t *testing.T) {
	mem, bs := testConfig(t, 5)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	in := Wrap(board, Spec{})
	if !in.Readback().Equal(mem) {
		t.Fatal("Readback not forwarded")
	}
	fars := mem.NonZeroFrames()[:1]
	got, err := in.ReadbackFrames(fars)
	if err != nil || len(got) != 1 {
		t.Fatalf("ReadbackFrames not forwarded: %v", err)
	}
}
