// Command jpgd is the partial-bitstream generation service: the JPG tool
// and the CAD flow behind it, served over HTTP with the operational surface
// a deployment needs — structured JSON logs with per-request correlation
// IDs, Prometheus metrics on /metrics, health/readiness probes, a
// flight-recorder dump of recent spans and errors, and pprof.
//
// Usage:
//
//	jpgd [-addr :8080] [-log-level info] [-cache] [-cache-dir DIR]
//	     [-flightrec 1024] [-span-logs] [-drain 0s]
//	     [-max-inflight N] [-queue N] [-artifact-cache-mb MB]
//	     [-coalesce] [-request-timeout 0s]
//
// The serving pipeline (request coalescing, hot-artifact cache, admission
// control) defaults from JPGD_MAX_INFLIGHT, JPGD_QUEUE,
// JPGD_ARTIFACT_CACHE_MB, JPGD_COALESCE and JPGD_REQUEST_TIMEOUT; flags
// override the environment.
//
// The daemon drains gracefully on SIGINT/SIGTERM: /readyz flips to 503,
// -drain passes, and in-flight requests finish before the process exits.
//
// Endpoints: see internal/jpgd.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/jpgd"
	"repro/internal/obs/flightrec"
	jpglog "repro/internal/obs/log"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jpgd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		useCache = flag.Bool("cache", cache.EnvEnabled(), "memoize CAD stages across requests (default $JPG_CACHE/$JPG_CACHE_DIR)")
		cacheDir = flag.String("cache-dir", os.Getenv(cache.EnvDir), "persist the cache on disk under this directory (implies -cache)")
		frCap    = flag.Int("flightrec", flightrec.DefaultCapacity, "flight recorder capacity (recent spans kept)")
		spanLogs = flag.Bool("span-logs", false, "also log every completed span (debug level, high volume)")
		drain    = flag.Duration("drain", 0, "delay between failing readiness and starting shutdown")
	)
	env := jpgd.ServeOptionsFromEnv()
	var (
		maxInflight = flag.Int("max-inflight", env.MaxInflight,
			"max concurrently executing API requests (0 = 4x GOMAXPROCS, min 8; default $JPGD_MAX_INFLIGHT)")
		queue = flag.Int("queue", queueFlag(env.Queue),
			"max requests waiting for an execution slot (-1 = 4x max-inflight, 0 = shed immediately; default $JPGD_QUEUE)")
		artifactMB = flag.Int("artifact-cache-mb", artifactToFlag(env.ArtifactCacheBytes),
			"hot-artifact cache budget in MiB (0 disables; default $JPGD_ARTIFACT_CACHE_MB or 64)")
		coalesce = flag.Bool("coalesce", !env.NoCoalesce,
			"coalesce concurrent identical /v1 requests (default $JPGD_COALESCE)")
		reqTimeout = flag.Duration("request-timeout", env.RequestTimeout,
			"per-request deadline, 0 = none (default $JPGD_REQUEST_TIMEOUT)")
	)
	flag.Parse()

	level, err := jpglog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	cfg := jpgd.Config{
		Logger:     jpglog.New(os.Stderr, level),
		Recorder:   flightrec.New(*frCap),
		LogSpans:   *spanLogs,
		DrainDelay: *drain,
		Serve: jpgd.ServeOptions{
			MaxInflight:        *maxInflight,
			Queue:              queueFlag(*queue),
			ArtifactCacheBytes: artifactFromFlag(*artifactMB),
			NoCoalesce:         !*coalesce,
			RequestTimeout:     *reqTimeout,
		},
	}
	if *useCache || *cacheDir != "" {
		cfg.Cache = cache.New(cache.Options{Dir: *cacheDir})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := jpgd.New(cfg)
	fmt.Printf("jpgd listening on %s\n", *addr)
	start := time.Now()
	err = srv.ListenAndServe(ctx, *addr)
	fmt.Printf("jpgd stopped after %v\n", time.Since(start).Round(time.Millisecond))
	return err
}

// The flag surface exposes the documented knobs (0 disables, -1 means auto)
// while ServeOptions encodes "disabled" as a negative; these helpers map
// between the conventions in both directions.

// queueFlag swaps 0 and -1 (its own inverse): the flag says "0 = shed
// immediately, -1 = auto", ServeOptions says "negative = no waiting, 0 =
// auto".
func queueFlag(q int) int {
	switch {
	case q < 0:
		return 0
	case q == 0:
		return -1
	}
	return q
}

func artifactToFlag(b int64) int {
	switch {
	case b < 0:
		return 0
	case b == 0:
		return 64
	}
	return int(b >> 20)
}

func artifactFromFlag(mb int) int64 {
	if mb <= 0 {
		return -1
	}
	return int64(mb) << 20
}
