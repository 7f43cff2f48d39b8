// Command lpbufd is the resident experiment service: an HTTP server
// that accepts lpbuf.job/v1 experiment jobs, executes them through the
// internal/runner worker pool with singleflight compile caching,
// streams per-job progress over SSE, and serves results from a
// content-addressed artifact store so repeated jobs cost one disk read.
//
// Usage:
//
//	lpbufd                        # defaults (127.0.0.1:7788, ./lpbufd-store)
//	lpbufd -config lpbufd.json    # JSON config file
//	lpbufd -listen :8080 -store /var/lib/lpbufd -max-jobs 4
//	lpbufd -log-format json -log-level debug
//
// Flags override the config file. SIGINT/SIGTERM drain gracefully:
// queued jobs are canceled, in-flight jobs complete, then the listener
// shuts down. SIGHUP re-reads -config and hot-applies the admission
// fields (queue_depth, max_per_client, workers, verify), logging one
// structured record listing which fields changed and which
// startup-bound fields (listen, store_dir, max_jobs) were ignored.
//
// Logs are leveled and structured (-log-format text|json, -log-level
// debug|info|warn|error); every HTTP request logs one record with its
// route, status, duration and trace ID.
//
// API (see SERVICE.md):
//
//	POST   /v1/jobs                submit (?wait=1 blocks until terminal)
//	GET    /v1/jobs                list
//	GET    /v1/jobs/{id}           status
//	DELETE /v1/jobs/{id}           cancel
//	GET    /v1/jobs/{id}/events    SSE progress
//	GET    /v1/jobs/{id}/artifact  lpbuf.artifact/v1 result
//	GET    /v1/jobs/{id}/trace     per-job span tree (Perfetto JSON)
//	GET    /metrics                obs registry snapshot (?format=prom)
//	GET    /debug/flightrecorder   recent transitions and rejections
//	GET    /healthz                liveness / drain status
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lpbuf/internal/service"
)

// drainTimeout bounds how long shutdown waits for in-flight jobs.
const drainTimeout = 2 * time.Minute

// Connection timeouts: a client must finish its request header within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout. There is deliberately no write or whole-request
// timeout: SSE streams and ?wait=1 replies stay open for as long as the
// job runs. Variables so tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in lpbufd's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// buildLogger constructs the daemon's structured logger from the
// -log-format / -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
}

func main() {
	configPath := flag.String("config", "", "JSON config file (flags override it)")
	listen := flag.String("listen", "", "HTTP listen address")
	storeDir := flag.String("store", "", "artifact store directory")
	maxJobs := flag.Int("max-jobs", 0, "concurrently executing jobs")
	workers := flag.Int("workers", -1, "per-job runner parallelism (0 = the whole compute pool, one slot per processor)")
	queueDepth := flag.Int("queue", 0, "queued-job admission bound")
	maxPerClient := flag.Int("max-per-client", 0, "per-client active-job cap")
	doVerify := flag.Bool("verify", false, "phase checkpoints on every compile")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbufd:", err)
		os.Exit(1)
	}
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	cfg := service.DefaultConfig()
	if *configPath != "" {
		if cfg, err = service.LoadConfig(*configPath); err != nil {
			fail(err)
		}
	}
	// Flags the user actually set override the file; untouched flags
	// keep the file's (or default) values.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "listen":
			cfg.Listen = *listen
		case "store":
			cfg.StoreDir = *storeDir
		case "max-jobs":
			cfg.MaxJobs = *maxJobs
		case "workers":
			cfg.Workers = *workers
		case "queue":
			cfg.QueueDepth = *queueDepth
		case "max-per-client":
			cfg.MaxPerClient = *maxPerClient
		case "verify":
			cfg.Verify = *doVerify
		}
	})

	srv, err := service.New(cfg)
	if err != nil {
		fail(err)
	}
	srv.SetSlog(logger)
	srv.Start()

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		fail(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"store", cfg.StoreDir,
		"max_jobs", cfg.MaxJobs,
		"queue_depth", cfg.QueueDepth)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fail(err)
			}
			return
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if *configPath == "" {
					logger.Warn("SIGHUP ignored: no -config file to reload")
					continue
				}
				changed, ignored, err := srv.ReloadFile(*configPath)
				if err != nil {
					logger.Error("config reload failed (keeping current config)",
						"path", *configPath, "err", err)
					continue
				}
				// One record carries the whole reload outcome: what took
				// effect and which startup-bound edits need a restart.
				logger.Info("config reloaded",
					"path", *configPath,
					"changed", changed,
					"ignored_needs_restart", ignored)
				continue
			}

			logger.Info("draining (in-flight jobs finish, queued jobs cancel)",
				"signal", sig.String())
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			if err := srv.Drain(ctx); err != nil {
				logger.Error("drain failed", "err", err)
			}
			if err := httpSrv.Shutdown(ctx); err != nil {
				logger.Error("shutdown failed", "err", err)
			}
			cancel()
			logger.Info("drained; bye")
			return
		}
	}
}
