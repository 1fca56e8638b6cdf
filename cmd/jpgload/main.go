// Command jpgload is the load generator for the jpgd serving pipeline. It
// drives a live daemon over HTTP with a mixed hot/cold request schedule —
// hot requests repeat a small set of build bodies (exercising the artifact
// cache and request coalescing), cold requests are unique (forcing full flow
// executions) — and reports throughput, latency percentiles, cache/coalesce
// hit rates and shed counts as BENCH_serve.json.
//
// With no -addr it self-hosts: it boots a target daemon with the serving
// pipeline on and a baseline daemon with coalescing and the artifact cache
// off, runs the identical schedule against both, and reports the speedup.
// It also cross-checks byte identity: the same request answered by the
// baseline (cold), by the target under concurrency (coalesced), and by the
// target again (cached) must produce byte-identical bodies.
//
// Usage:
//
//	jpgload [-addr URL] [-baseline-addr URL] [-duration 5s] [-conns 32]
//	        [-hot 0.9] [-hotset 4] [-quick] [-json BENCH_serve.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jpgd"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jpgload:", err)
		os.Exit(1)
	}
}

type config struct {
	duration time.Duration
	conns    int
	hotFrac  float64
	hotSet   int
	seed     int64
}

func run() error {
	var (
		addr     = flag.String("addr", "", "target jpgd base URL (empty = self-host a daemon)")
		baseAddr = flag.String("baseline-addr", "", "baseline jpgd base URL for the speedup comparison (empty + self-host = boot one with coalescing and artifact cache off)")
		duration = flag.Duration("duration", 5*time.Second, "load duration per server")
		conns    = flag.Int("conns", 32, "concurrent client connections")
		hotFrac  = flag.Float64("hot", 0.9, "fraction of requests drawn from the hot set")
		hotSet   = flag.Int("hotset", 4, "number of distinct hot request bodies")
		seed     = flag.Int64("seed", 1, "schedule RNG seed")
		quick    = flag.Bool("quick", false, "short run for CI (2s, 16 conns)")
		jsonOut  = flag.String("json", "", "write the report to this file as JSON")
	)
	flag.Parse()

	cfg := config{duration: *duration, conns: *conns, hotFrac: *hotFrac, hotSet: *hotSet, seed: *seed}
	if *quick {
		cfg.duration = 2 * time.Second
		cfg.conns = 16
	}
	if cfg.hotSet < 1 {
		cfg.hotSet = 1
	}

	targetURL, baselineURL := *addr, *baseAddr
	var shutdowns []func()
	defer func() {
		for _, f := range shutdowns {
			f()
		}
	}()
	if targetURL == "" {
		url, stop, err := selfHost(jpgd.ServeOptions{})
		if err != nil {
			return err
		}
		shutdowns = append(shutdowns, stop)
		targetURL = url
		if baselineURL == "" {
			url, stop, err := selfHost(jpgd.ServeOptions{NoCoalesce: true, ArtifactCacheBytes: -1})
			if err != nil {
				return err
			}
			shutdowns = append(shutdowns, stop)
			baselineURL = url
		}
	}
	for _, u := range []string{targetURL, baselineURL} {
		if u == "" {
			continue
		}
		if err := waitReady(u); err != nil {
			return err
		}
	}

	rep := report{
		Schema:     "jpgload/v1",
		Quick:      *quick,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   "/v1/build XCV50 counter+lfsr",
		Config: reportConfig{
			DurationS: cfg.duration.Seconds(),
			Conns:     cfg.conns,
			HotFrac:   cfg.hotFrac,
			HotSet:    cfg.hotSet,
		},
	}

	// Warm each daemon's flow cache with the hot set once so the comparison
	// measures the serving layer, not first-touch compilation.
	fmt.Fprintf(os.Stderr, "jpgload: target %s\n", targetURL)
	warm(targetURL, cfg)
	rep.Target = drive(targetURL, cfg)
	if baselineURL != "" {
		fmt.Fprintf(os.Stderr, "jpgload: baseline %s\n", baselineURL)
		warm(baselineURL, cfg)
		b := drive(baselineURL, cfg)
		rep.Baseline = &b
		if b.RPS > 0 {
			rep.SpeedupRPS = round2(rep.Target.RPS / b.RPS)
		}
	}

	ident, err := byteIdentity(targetURL, baselineURL, cfg)
	if err != nil {
		return fmt.Errorf("byte-identity check: %w", err)
	}
	rep.ByteIdentical = ident

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			return err
		}
	}
	os.Stdout.Write(out)
	if !ident {
		return fmt.Errorf("responses are NOT byte-identical across serving paths")
	}
	return nil
}

// selfHost boots an in-process jpgd on a loopback port and returns its base
// URL and a shutdown func.
func selfHost(opts jpgd.ServeOptions) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := jpgd.New(jpgd.Config{Registry: obs.NewRegistry(), Serve: opts})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// buildBody returns the /v1/build request for one schedule slot. Hot slots
// reuse seeds [0,hotSet); cold slots get unique seeds, forcing a fresh CAD
// run per request.
func buildBody(seed int64) []byte {
	body, _ := json.Marshal(map[string]any{
		"part":      "XCV50",
		"instances": "u1/=counter:bits=4;u2/=lfsr:bits=4",
		"seed":      seed,
		"variant":   map[string]any{"prefix": "u1/", "gen": "lfsr:bits=4", "seed": seed + 1},
	})
	return body
}

func warm(base string, cfg config) {
	for i := 0; i < cfg.hotSet; i++ {
		resp, err := http.Post(base+"/v1/build", "application/json", bytes.NewReader(buildBody(int64(i))))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

type sample struct {
	latency time.Duration
	status  int
	xcache  string
	hot     bool
}

// drive runs the mixed schedule against one daemon and aggregates the stats.
func drive(base string, cfg config) runStats {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.conns * 2,
		MaxIdleConnsPerHost: cfg.conns * 2,
	}}
	var (
		mu      sync.Mutex
		samples []sample
		coldSeq atomic.Int64
	)
	coldSeq.Store(1 << 20)

	stopAt := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			local := make([]sample, 0, 1024)
			for time.Now().Before(stopAt) {
				hot := rng.Float64() < cfg.hotFrac
				var seed int64
				if hot {
					seed = int64(rng.Intn(cfg.hotSet))
				} else {
					seed = coldSeq.Add(1)
				}
				s := sample{hot: hot}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/build", "application/json", bytes.NewReader(buildBody(seed)))
				if err != nil {
					s.status = -1
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
					s.xcache = resp.Header.Get("X-Cache")
				}
				s.latency = time.Since(t0)
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return summarize(samples, cfg.duration)
}

type classStats struct {
	Requests int   `json:"requests"`
	P50US    int64 `json:"p50_us"`
	P95US    int64 `json:"p95_us"`
	P99US    int64 `json:"p99_us"`
}

type runStats struct {
	Requests int            `json:"requests"`
	Errors   int            `json:"errors"`
	Shed     int            `json:"shed"`
	RPS      float64        `json:"rps"`
	P50US    int64          `json:"p50_us"`
	P95US    int64          `json:"p95_us"`
	P99US    int64          `json:"p99_us"`
	Hot      classStats     `json:"hot"`
	Cold     classStats     `json:"cold"`
	XCache   map[string]int `json:"xcache"`
	HitRate  float64        `json:"hot_hit_rate"`
}

func summarize(samples []sample, d time.Duration) runStats {
	st := runStats{XCache: map[string]int{}}
	var all, hot, cold []time.Duration
	hotServedWarm := 0
	for _, s := range samples {
		st.Requests++
		switch {
		case s.status == -1 || s.status >= 500 && s.status != http.StatusServiceUnavailable:
			st.Errors++
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			st.Shed++
		}
		if s.xcache != "" {
			st.XCache[s.xcache]++
		}
		if s.status == http.StatusOK {
			all = append(all, s.latency)
			if s.hot {
				hot = append(hot, s.latency)
				if s.xcache == "hit" || s.xcache == "coalesced" {
					hotServedWarm++
				}
			} else {
				cold = append(cold, s.latency)
			}
		}
	}
	st.RPS = round2(float64(st.Requests-st.Errors-st.Shed) / d.Seconds())
	st.P50US, st.P95US, st.P99US = percentiles(all)
	st.Hot = class(hot)
	st.Cold = class(cold)
	if len(hot) > 0 {
		st.HitRate = round2(float64(hotServedWarm) / float64(len(hot)))
	}
	return st
}

func class(lat []time.Duration) classStats {
	p50, p95, p99 := percentiles(lat)
	return classStats{Requests: len(lat), P50US: p50, P95US: p95, P99US: p99}
}

func percentiles(lat []time.Duration) (p50, p95, p99 int64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i].Microseconds()
	}
	return at(0.50), at(0.95), at(0.99)
}

// byteIdentity answers whether the cold, coalesced and cached serving paths
// of the target daemon produce byte-identical bodies for the same request:
// the first request of a concurrent burst executes the flow (cold leader),
// the rest coalesce onto it, and a repeat is served from the artifact cache.
// The baseline daemon's answer is a separate execution; it must match byte
// for byte too, which confirms the serving pipeline does not alter results.
func byteIdentity(targetURL, baselineURL string, cfg config) (bool, error) {
	body := buildBody(7 << 20) // a seed no schedule slot uses
	fetch := func(base string) ([]byte, string, error) {
		resp, err := http.Post(base+"/v1/build", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return b, resp.Header.Get("X-Cache"), nil
	}

	// Concurrent burst against the target: one leader executes (the cold
	// path), the rest coalesce (or hit the artifact the leader stored).
	const burst = 8
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = fetch(targetURL)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	reference := bodies[0]
	for _, b := range bodies {
		if !bytes.Equal(b, reference) {
			return false, nil
		}
	}
	// The cached repeat.
	cached, xc, err := fetch(targetURL)
	if err != nil {
		return false, err
	}
	if xc != "hit" && xc != "" {
		fmt.Fprintf(os.Stderr, "jpgload: note: repeat request X-Cache=%q (artifact cache off?)\n", xc)
	}
	if !bytes.Equal(cached, reference) {
		return false, nil
	}
	// Cross-check the result against an independent execution on the
	// baseline.
	if baselineURL != "" {
		b, _, err := fetch(baselineURL)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(b, reference) {
			return false, nil
		}
	}
	return true, nil
}

type reportConfig struct {
	DurationS float64 `json:"duration_s"`
	Conns     int     `json:"conns"`
	HotFrac   float64 `json:"hot_fraction"`
	HotSet    int     `json:"hot_set"`
}

// report is the -json record. The host fields say where the load generator
// ran; with no -addr the daemons it drives run in the same process.
type report struct {
	Schema        string       `json:"schema"`
	Quick         bool         `json:"quick"`
	NumCPU        int          `json:"num_cpu"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	GoVersion     string       `json:"go_version"`
	Workload      string       `json:"workload"`
	Config        reportConfig `json:"config"`
	Target        runStats     `json:"target"`
	Baseline      *runStats    `json:"baseline,omitempty"`
	SpeedupRPS    float64      `json:"speedup_rps,omitempty"`
	ByteIdentical bool         `json:"byte_identical"`
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
