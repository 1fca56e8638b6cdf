// Package faults provides deterministic, seedable fault injection for the
// download/reconfiguration path: an Injector wraps any xhwif.HWIF and
// perturbs downloads — failing outright, truncating or corrupting the
// bitstream bytes on the wire, or adding link latency — according to a
// Spec. Everything is driven by the spec's seed and the download-attempt
// counter, so a faulted run is exactly reproducible: CI uses this to prove
// the retry and rollback behaviour of xhwif.ReliableHWIF and the
// transactional Board without flaky hardware.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
	jpglog "repro/internal/obs/log"
	"repro/internal/xhwif"
)

// Env is the environment variable carrying a default fault spec (same
// syntax as Parse), so any tool's downloads can be faulted without new
// flags: JPG_FAULTS="nth=2,mode=error,seed=7".
const Env = "JPG_FAULTS"

// Fault modes.
const (
	// ModeError fails the download without touching the device.
	ModeError = "error"
	// ModeTruncate cuts the bitstream roughly in half (word-aligned) before
	// handing it to the device; the configuration port rejects the
	// truncated stream mid-frame-write.
	ModeTruncate = "truncate"
	// ModeCorrupt flips one byte at a seed-determined offset; the port's
	// CRC check rejects the stream.
	ModeCorrupt = "corrupt"
)

// ErrInjected is the error (wrapped) returned for ModeError injections.
var ErrInjected = errors.New("faults: injected download fault")

// Spec selects which download attempts are faulted and how. The zero Spec
// injects nothing.
type Spec struct {
	// Seed drives the injector's RNG (corruption offsets, Prob draws).
	Seed int64
	// Nth faults every Nth download attempt (1-based: nth=2 faults
	// attempts 2, 4, 6, ...).
	Nth int
	// First faults the first N download attempts.
	First int
	// Prob faults each attempt independently with this probability.
	Prob float64
	// Mode is one of ModeError, ModeTruncate, ModeCorrupt (default
	// ModeError).
	Mode string
	// Latency is added to every download, faulted or not (the link model).
	Latency time.Duration
}

// Enabled reports whether the spec can ever inject or delay anything.
func (s Spec) Enabled() bool {
	return s.Nth > 0 || s.First > 0 || s.Prob > 0 || s.Latency > 0
}

func (s Spec) String() string {
	if !s.Enabled() {
		return "off"
	}
	var parts []string
	if s.Nth > 0 {
		parts = append(parts, fmt.Sprintf("nth=%d", s.Nth))
	}
	if s.First > 0 {
		parts = append(parts, fmt.Sprintf("first=%d", s.First))
	}
	if s.Prob > 0 {
		parts = append(parts, fmt.Sprintf("prob=%g", s.Prob))
	}
	mode := s.Mode
	if mode == "" {
		mode = ModeError
	}
	parts = append(parts, "mode="+mode, fmt.Sprintf("seed=%d", s.Seed))
	if s.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%v", s.Latency))
	}
	return strings.Join(parts, ",")
}

// Parse reads a spec string: comma-separated key=value pairs with keys
// nth, first, prob, mode, seed, latency — e.g.
// "nth=3,mode=truncate,seed=7,latency=1ms". An empty string is the zero
// (disabled) spec.
func Parse(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("faults: %q is not key=value", field)
		}
		var err error
		switch key {
		case "nth":
			spec.Nth, err = strconv.Atoi(val)
		case "first":
			spec.First, err = strconv.Atoi(val)
		case "prob":
			spec.Prob, err = strconv.ParseFloat(val, 64)
			if err == nil && !(spec.Prob >= 0 && spec.Prob <= 1) { // negated so NaN fails too
				err = fmt.Errorf("probability %g outside [0,1]", spec.Prob)
			}
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "mode":
			switch val {
			case ModeError, ModeTruncate, ModeCorrupt:
				spec.Mode = val
			default:
				err = fmt.Errorf("unknown mode %q (want %s|%s|%s)", val, ModeError, ModeTruncate, ModeCorrupt)
			}
		case "latency":
			spec.Latency, err = time.ParseDuration(val)
		default:
			return spec, fmt.Errorf("faults: unknown key %q in %q", key, s)
		}
		if err != nil {
			return spec, fmt.Errorf("faults: bad %s in %q: %v", key, s, err)
		}
	}
	if spec.Nth < 0 || spec.First < 0 || spec.Latency < 0 {
		return spec, fmt.Errorf("faults: negative values in %q", s)
	}
	return spec, nil
}

// Injection metrics (always on; see internal/obs).
var (
	mAttempts  = obs.GetCounter("faults.download_attempts")
	mInjected  = obs.GetCounter("faults.injected")
	mLatencyNs = obs.GetHistogram("faults.injected_latency_ns")
)

// Injector wraps a HWIF and perturbs its downloads per the spec. Readback
// paths pass through untouched.
type Injector struct {
	inner xhwif.HWIF
	spec  Spec

	mu       sync.Mutex
	rng      *rand.Rand
	attempts int
	injected int
}

var _ xhwif.HWIF = (*Injector)(nil)

// Wrap returns an injector over inner.
func Wrap(inner xhwif.HWIF, spec Spec) *Injector {
	if spec.Mode == "" {
		spec.Mode = ModeError
	}
	return &Injector{inner: inner, spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Counts returns how many download attempts the injector saw and how many
// it faulted.
func (in *Injector) Counts() (attempts, injected int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.attempts, in.injected
}

// PartName implements HWIF.
func (in *Injector) PartName() string { return in.inner.PartName() }

// Readback implements HWIF.
func (in *Injector) Readback() *frames.Memory { return in.inner.Readback() }

// ReadbackFrames implements HWIF.
func (in *Injector) ReadbackFrames(fars []device.FAR) ([][]uint32, error) {
	return in.inner.ReadbackFrames(fars)
}

// ExecuteReadback implements HWIF.
func (in *Injector) ExecuteReadback(request []byte) ([]uint32, error) {
	return in.inner.ExecuteReadback(request)
}

// DownloadCtx implements HWIF: count the attempt, decide deterministically
// whether to fault it, and either fail, perturb the bytes on their way to
// the device, or pass the stream through. The inner download's
// transactional behaviour decides what a perturbed stream does to the
// device (Board rolls back). Injected latency waits on the context, so a
// deadline or cancellation ends the attempt with ctx.Err() and the device
// untouched. Each injected fault logs one structured event, so a request's
// logs show exactly which attempt was perturbed and how.
func (in *Injector) DownloadCtx(ctx context.Context, bs []byte) (xhwif.DownloadStats, error) {
	in.mu.Lock()
	in.attempts++
	n := in.attempts
	inject := (in.spec.Nth > 0 && n%in.spec.Nth == 0) ||
		(in.spec.First > 0 && n <= in.spec.First) ||
		(in.spec.Prob > 0 && in.rng.Float64() < in.spec.Prob)
	var corruptAt int
	if inject && len(bs) > 0 {
		corruptAt = in.rng.Intn(len(bs))
	}
	in.mu.Unlock()

	mAttempts.Inc()
	if in.spec.Latency > 0 {
		t0 := time.Now()
		t := time.NewTimer(in.spec.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			mLatencyNs.Observe(time.Since(t0).Nanoseconds())
			return xhwif.DownloadStats{}, ctx.Err()
		case <-t.C:
			mLatencyNs.Observe(time.Since(t0).Nanoseconds())
		}
	}
	if !inject {
		return in.inner.DownloadCtx(ctx, bs)
	}
	// A fault counts once it reaches the device: an attempt the context
	// cut short during the latency wait injected nothing.
	in.mu.Lock()
	in.injected++
	mInjected.Inc()
	in.mu.Unlock()
	jpglog.Warn(ctx, "fault.injected", "mode", in.spec.Mode, "attempt", n, "bytes", len(bs))
	switch in.spec.Mode {
	case ModeTruncate:
		// Word-aligned cut around the midpoint lands inside the FDRI frame
		// run of any realistic stream, which the port rejects.
		cut := (len(bs) / 2) &^ 3
		ds, err := in.inner.DownloadCtx(ctx, bs[:cut])
		if err == nil {
			err = fmt.Errorf("faults: truncated stream unexpectedly accepted")
		}
		return ds, fmt.Errorf("%w (attempt %d, truncated to %d of %d bytes): %v", ErrInjected, n, cut, len(bs), err)
	case ModeCorrupt:
		dirty := make([]byte, len(bs))
		copy(dirty, bs)
		if len(dirty) > 0 {
			dirty[corruptAt] ^= 0x40
		}
		ds, err := in.inner.DownloadCtx(ctx, dirty)
		if err == nil {
			// The flip slipped past the port's checks (e.g. it landed in a
			// pad word); surface the injection so a reliability layer
			// re-downloads the clean stream.
			err = fmt.Errorf("faults: corrupted stream accepted by device")
		}
		return ds, fmt.Errorf("%w (attempt %d, byte %d flipped): %v", ErrInjected, n, corruptAt, err)
	default: // ModeError
		return xhwif.DownloadStats{Bytes: len(bs)}, fmt.Errorf("%w (attempt %d)", ErrInjected, n)
	}
}
