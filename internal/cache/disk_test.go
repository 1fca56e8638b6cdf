package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestDiskRoundTripAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	k := key("persist")
	payload := []byte("routed ncd bytes")

	c1 := New(Options{Dir: dir})
	c1.GetOrCompute(context.Background(), "route", k, func() ([]byte, error) { return payload, nil })

	// A fresh cache over the same directory must hit without computing.
	c2 := New(Options{Dir: dir})
	v, hit, err := c2.GetOrCompute(context.Background(), "route", k, func() ([]byte, error) {
		t.Fatal("compute ran despite a disk entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(v, payload) {
		t.Fatalf("disk round-trip: v=%q hit=%v err=%v", v, hit, err)
	}
	if c2.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", c2.Dir(), dir)
	}
}

func TestDiskEntryLayout(t *testing.T) {
	dir := t.TempDir()
	k := key("layout")
	c := New(Options{Dir: dir})
	c.GetOrCompute(context.Background(), "place", k, func() ([]byte, error) { return []byte("x"), nil })

	hexk := k.String()
	path := filepath.Join(dir, "place", hexk[:2], hexk)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("entry not at expected path: %v", err)
	}
	if !bytes.HasPrefix(raw, diskMagic) {
		t.Fatal("entry missing magic prefix")
	}
	// No temp files should be left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "place", hexk[:2], ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestDiskCorruptionDegradesToMiss covers the corruption-tolerance contract:
// any damaged container (truncated, wrong magic, flipped payload byte, bad
// length) reads as a miss, is removed, and the slot is rewritten by the next
// compute.
func TestDiskCorruptionDegradesToMiss(t *testing.T) {
	k := key("fragile")
	payload := []byte("some stage output worth caching")

	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"flipped-payload-byte", func(b []byte) []byte { b[len(diskMagic)+8] ^= 0x01; return b }},
		{"bad-length", func(b []byte) []byte { b[len(diskMagic)+7] ^= 0x01; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := New(Options{Dir: dir})
			c1.GetOrCompute(context.Background(), "s", k, func() ([]byte, error) { return payload, nil })

			hexk := k.String()
			path := filepath.Join(dir, "s", hexk[:2], hexk)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := New(Options{Dir: dir})
			calls := 0
			v, hit, err := c2.GetOrCompute(context.Background(), "s", k, func() ([]byte, error) {
				calls++
				return payload, nil
			})
			if err != nil || hit || calls != 1 || !bytes.Equal(v, payload) {
				t.Fatalf("corrupt entry: v=%q hit=%v calls=%d err=%v", v, hit, calls, err)
			}
			// The recompute rewrites a valid entry.
			c3 := New(Options{Dir: dir})
			if _, hit, _ := c3.GetOrCompute(context.Background(), "s", k, func() ([]byte, error) { return payload, nil }); !hit {
				t.Fatal("slot not rewritten after corruption recovery")
			}
		})
	}
}

func TestContainerCodec(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte{0xab}, 1<<16)} {
		enc := encodeContainer(payload)
		dec, ok := decodeContainer(enc)
		if !ok || !bytes.Equal(dec, payload) {
			t.Fatalf("round-trip failed for %d-byte payload (ok=%v)", len(payload), ok)
		}
	}
	if _, ok := decodeContainer([]byte("not a container")); ok {
		t.Fatal("garbage decoded")
	}
}

// BenchmarkDiskRoundTrip measures a put followed by a cold read of one entry
// through the disk tier, the cost a warm cross-process cache pays per stage.
func BenchmarkDiskRoundTrip(b *testing.B) {
	dir := b.TempDir()
	d := &diskStore{root: dir}
	payload := bytes.Repeat([]byte{0x5a}, 64<<10) // a typical routed-NCD size
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := key(fmt.Sprintf("bench-%d", i))
		d.put("bench", k, payload)
		got, ok := d.get("bench", k)
		if !ok || len(got) != len(payload) {
			b.Fatal("round trip failed")
		}
	}
}
