package xhwif

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

func fullBitstream(t *testing.T, seed int64) (*frames.Memory, []byte) {
	t.Helper()
	p := device.MustByName("XCV50")
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		m.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
	}
	return m, bitstream.WriteFull(m)
}

func TestDownloadFullThenReadback(t *testing.T) {
	mem, bs := fullBitstream(t, 1)
	b := NewBoard(device.MustByName("XCV50"))
	if b.Running() {
		t.Fatal("fresh board claims to run")
	}
	ds, err := b.Download(bs)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Started || !b.Running() {
		t.Fatal("full download did not start the device")
	}
	if !b.Readback().Equal(mem) {
		t.Fatal("readback differs from downloaded configuration")
	}
	// Readback is a copy.
	rb := b.Readback()
	rb.SetBit(rb.Part.CLBBit(0, 0, 0), true)
	if b.Readback().Bit(rb.Part.CLBBit(0, 0, 0)) {
		t.Fatal("readback aliases device state")
	}
}

func TestDownloadTimeModel(t *testing.T) {
	_, bs := fullBitstream(t, 2)
	b := NewBoard(device.MustByName("XCV50"))
	ds, err := b.Download(bs)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(len(bs)) / DefaultClockHz * float64(time.Second))
	if ds.ModelTime != want {
		t.Fatalf("model time %v, want %v", ds.ModelTime, want)
	}
}

func TestCumulativeCounters(t *testing.T) {
	_, bs := fullBitstream(t, 3)
	b := NewBoard(device.MustByName("XCV50"))
	for i := 0; i < 3; i++ {
		if _, err := b.Download(bs); err != nil {
			t.Fatal(err)
		}
	}
	if b.Downloads != 3 || b.TotalBytes != 3*len(bs) || b.TotalModelTime <= 0 {
		t.Fatalf("counters wrong: %d downloads, %d bytes", b.Downloads, b.TotalBytes)
	}
}

func TestDownloadRejectsWrongPart(t *testing.T) {
	_, bs := fullBitstream(t, 4)
	b := NewBoard(device.MustByName("XCV300"))
	if _, err := b.Download(bs); err == nil {
		t.Fatal("XCV50 bitstream accepted by XCV300 board")
	}
}

func TestReadbackFrames(t *testing.T) {
	mem, bs := fullBitstream(t, 5)
	b := NewBoard(device.MustByName("XCV50"))
	if _, err := b.Download(bs); err != nil {
		t.Fatal(err)
	}
	fars := mem.NonZeroFrames()
	if len(fars) == 0 {
		t.Fatal("test memory has no content")
	}
	got, err := b.ReadbackFrames(fars)
	if err != nil {
		t.Fatal(err)
	}
	for i, far := range fars {
		want := mem.Frame(far)
		for w := range want {
			if got[i][w] != want[w] {
				t.Fatalf("frame %v word %d mismatch", far, w)
			}
		}
	}
}

func TestDownloadRollbackOnMalformedStream(t *testing.T) {
	mem, bs := fullBitstream(t, 6)
	b := NewBoard(device.MustByName("XCV50"))
	if _, err := b.Download(bs); err != nil {
		t.Fatal(err)
	}
	// A different configuration, truncated mid-FDRI: the port must reject
	// it and the device must keep its exact pre-download state.
	mem2 := mem.Clone()
	mem2.SetBit(mem2.Part.CLBBit(1, 1, 1), true)
	bad := bitstream.WriteFull(mem2)
	bad = bad[:(len(bad)/2)&^3]
	if _, err := b.Download(bad); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if !b.Readback().Equal(mem) {
		t.Fatal("failed download left the device partially reconfigured")
	}
	if d, _, _ := b.Totals(); d != 1 {
		t.Fatalf("failed download counted: %d downloads", d)
	}
}

func TestConcurrentDownloadCounters(t *testing.T) {
	_, bs := fullBitstream(t, 7)
	b := NewBoard(device.MustByName("XCV50"))
	const n = 16
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := b.Download(bs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	d, bytes, mt := b.Totals()
	if d != n || bytes != n*len(bs) || mt <= 0 {
		t.Fatalf("counters wrong under concurrency: %d downloads, %d bytes", d, bytes)
	}
}

func TestReadbackFramesRejectsInvalidFAR(t *testing.T) {
	b := NewBoard(device.MustByName("XCV50"))
	if _, err := b.ReadbackFrames([]device.FAR{device.FAR(0xffffffff)}); err == nil {
		t.Fatal("out-of-range FAR accepted")
	}
	// A valid request still works.
	got, err := b.ReadbackFrames([]device.FAR{b.Part.FirstFAR()})
	if err != nil || len(got) != 1 || len(got[0]) != b.Part.FrameWords() {
		t.Fatalf("valid readback broken: %v", err)
	}
}
