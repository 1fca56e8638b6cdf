package xhwif

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// flaky fails the first Fail downloads outright (device untouched), then
// delegates to the wrapped board — the minimal transactional-but-unreliable
// link.
type flaky struct {
	HWIF
	fail int
	seen int
}

func (f *flaky) DownloadCtx(ctx context.Context, bs []byte) (DownloadStats, error) {
	if err := ctx.Err(); err != nil {
		return DownloadStats{}, err
	}
	f.seen++
	if f.seen <= f.fail {
		return DownloadStats{Bytes: len(bs)}, errors.New("flaky: injected link failure")
	}
	return f.HWIF.DownloadCtx(ctx, bs)
}

// liar reports success without writing anything: the failure mode only
// verify-after-write can catch.
type liar struct{ HWIF }

func (liar) DownloadCtx(_ context.Context, bs []byte) (DownloadStats, error) {
	return DownloadStats{Bytes: len(bs), Attempts: 1}, nil
}

// fastPolicy keeps test retries effectively instant.
func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}
}

func TestReliableRetriesUntilSuccess(t *testing.T) {
	mem, bs := fullBitstream(t, 20)
	p := device.MustByName("XCV50")

	r := NewReliable(&flaky{HWIF: NewBoard(p), fail: 2}, fastPolicy(4))
	ds, err := r.DownloadCtx(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attempts != 3 {
		t.Fatalf("succeeded on attempt %d, want 3", ds.Attempts)
	}
	if retries, aborts, _ := r.Counts(); retries != 2 || aborts != 0 {
		t.Fatalf("counters: %d retries, %d aborts", retries, aborts)
	}
	// The retried download converges to the same state as a fault-free one.
	if !r.Readback().Equal(mem) {
		t.Fatal("retried download diverged from the fault-free state")
	}
}

func TestReliableExhaustedKeepsPreState(t *testing.T) {
	mem, bs := fullBitstream(t, 21)
	p := device.MustByName("XCV50")
	board := NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}

	mem2 := mem.Clone()
	mem2.SetBit(p.CLBBit(2, 2, 2), true)
	r := NewReliable(&flaky{HWIF: board, fail: 100}, fastPolicy(3))
	if _, err := r.DownloadCtx(context.Background(), bitstream.WriteFull(mem2)); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if _, aborts, _ := r.Counts(); aborts != 1 {
		t.Fatalf("aborts = %d, want 1", aborts)
	}
	if !board.Readback().Equal(mem) {
		t.Fatal("device state changed although every attempt failed")
	}
}

func TestReliableVerifyCatchesSilentlyDroppedWrite(t *testing.T) {
	_, bs := fullBitstream(t, 22)
	p := device.MustByName("XCV50")

	pol := fastPolicy(2)
	pol.Verify = true
	r := NewReliable(&liar{HWIF: NewBoard(p)}, pol)
	_, err := r.DownloadCtx(context.Background(), bs)
	if err == nil {
		t.Fatal("verification accepted a download the device never applied")
	}
	if _, _, vfails := r.Counts(); vfails != 2 {
		t.Fatalf("verify failures = %d, want 2 (one per attempt)", vfails)
	}
}

func TestReliableVerifyPassesOnHonestBoard(t *testing.T) {
	mem, bs := fullBitstream(t, 23)
	p := device.MustByName("XCV50")
	pol := fastPolicy(3)
	pol.Verify = true
	r := NewReliable(&flaky{HWIF: NewBoard(p), fail: 1}, pol)
	if _, err := r.DownloadCtx(context.Background(), bs); err != nil {
		t.Fatal(err)
	}
	if _, _, vfails := r.Counts(); vfails != 0 {
		t.Fatalf("verify failures = %d on an honest board", vfails)
	}
	if !r.Readback().Equal(mem) {
		t.Fatal("verified download diverged")
	}
}

func TestReliableDeadline(t *testing.T) {
	_, bs := fullBitstream(t, 24)
	p := device.MustByName("XCV50")
	pol := fastPolicy(3)
	pol.Timeout = time.Nanosecond
	r := NewReliable(&flaky{HWIF: NewBoard(p), fail: 100}, pol)
	time.Sleep(time.Microsecond) // let the 1ns deadline expire
	_, err := r.DownloadCtx(context.Background(), bs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestReliableCancelledContext(t *testing.T) {
	_, bs := fullBitstream(t, 25)
	r := NewReliable(NewBoard(device.MustByName("XCV50")), fastPolicy(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.DownloadCtx(ctx, bs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 42}.withDefaults()
	a := NewReliable(NewBoard(device.MustByName("XCV50")), p)
	b := NewReliable(NewBoard(device.MustByName("XCV50")), p)
	for attempt := 1; attempt <= 6; attempt++ {
		da, db := a.backoff(p, attempt), b.backoff(p, attempt)
		if da != db {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, da, db)
		}
		if da < p.BaseBackoff || da > p.MaxBackoff+p.MaxBackoff/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, da, p.BaseBackoff, p.MaxBackoff*3/2)
		}
	}
}
