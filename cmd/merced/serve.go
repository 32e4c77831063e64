package main

// The `merced serve` subcommand: the compiler as a long-running HTTP
// daemon. Jobs are the same v1 jobspec documents -spec reads; reports are
// byte-identical to the CLI's. SIGTERM/SIGINT drains gracefully: intake
// stops (new submissions get 503), queued and running jobs finish, then
// the HTTP listener shuts down and the process exits 0.
//
//	merced serve -addr localhost:8080 -workers 4 -queue-depth 64
//	curl -d @job.json http://localhost:8080/v1/jobs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// runServe parses the subcommand's own flag set and runs the daemon until
// a termination signal or a listener error. Factored from main for the
// same reason the other modes are: the exit code is the only process-level
// effect.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merced serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "job-executing workers (0: NumCPU)")
	queueDepth := fs.Int("queue-depth", serve.DefaultQueueDepth, "bounded job queue; a full queue answers 429 + Retry-After")
	cacheSize := fs.Int("cache-size", 0, "process-lifetime artifact cache entries (0: default)")
	cacheDir := fs.String("cache-dir", "", "persistent content-addressed artifact store backing the cache (survives restarts)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "how long a signal-triggered drain waits for in-flight jobs")
	withPprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and add runtime gauges to the Prometheus exposition")
	logLevel := fs.String("log-level", "off", "structured-log threshold on stderr (off, debug, info, warn, error)")
	logFormat := fs.String("log-format", "text", "structured-log encoding (text, json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "merced serve:", err)
		return 1
	}

	// -cache-dir backs the process-lifetime cache with a persistent store:
	// a restarted daemon serves warm artifacts from disk instead of
	// recomputing them.
	var cache *sweep.Cache
	if *cacheDir != "" {
		st, err := cas.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "merced serve:", err)
			return 1
		}
		cache = sweep.NewCacheWithStore(*cacheSize, st)
		defer cache.Flush() // pending write-behind persists land before exit
	}

	// Jobs derive from their own root, NOT the signal context: a SIGTERM
	// must drain in-flight work to completion, not cancel it.
	base := obs.WithLogger(context.Background(), logger)
	srv := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheSize:   *cacheSize,
		Cache:       cache,
		BaseContext: base,
		Pprof:       *withPprof,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "merced serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "merced serve: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "merced serve:", err)
			return 1
		}
		return 0
	case got := <-sig:
		fmt.Fprintf(stderr, "merced serve: %v: draining (%v budget)\n", got, *drainTimeout)
		code := 0
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, "merced serve: drain:", err)
			code = 1
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "merced serve: shutdown:", err)
			code = 1
		}
		fmt.Fprintln(stderr, "merced serve: stopped")
		return code
	}
}
