// Command janusd runs the Janus pipeline as a long-lived service: the
// whole build → profile → analyze → parallelise → simulate suite is
// served over HTTP/JSON on one listener, with bounded concurrent jobs,
// per-request deadlines, load shedding, graceful drain on SIGTERM, and
// zero-downtime hot restart on SIGHUP.
//
// Usage:
//
//	janusd [flags]
//
//	-addr string      listen address (default "127.0.0.1:7117")
//	-workers int      max concurrently running jobs (default GOMAXPROCS)
//	-queue int        queued jobs beyond workers before shedding
//	                  (default 16; 0 = none, shed whenever every worker is busy)
//	-cache-dir dir    durable artifact cache every request renders through
//	-deadline dur     default per-request deadline (0 = none)
//	-drain dur        graceful drain budget on SIGTERM/SIGHUP (default 60s)
//	-inject spec      service fault plan: point[@every][#seed] over
//	                  handler-panic | queue-stall | slow-worker
//	-stall dur        how long injected stalls last (default 100ms)
//	-quiet            suppress the lifecycle log
//
// Signals: SIGTERM/SIGINT drain in-flight jobs under -drain, then exit
// 0. SIGHUP spawns a replacement process that inherits the listener fd
// (no dropped connections), then drains and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"janus/internal/faultinject"
	"janus/internal/janusd"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus os.Exit, so the end-to-end signal tests can drive
// the real daemon lifecycle from a re-exec'd test binary.
func run(args []string) int {
	fs := flag.NewFlagSet("janusd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7117", "listen address")
	workers := fs.Int("workers", 0, "max concurrently running jobs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "queued jobs beyond workers before shedding (0 = none)")
	cacheDir := fs.String("cache-dir", "", "durable artifact cache directory")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
	drain := fs.Duration("drain", 60*time.Second, "graceful drain budget")
	inject := fs.String("inject", "", "service fault plan: point[@every][#seed]")
	stall := fs.Duration("stall", 100*time.Millisecond, "injected stall duration")
	quiet := fs.Bool("quiet", false, "suppress the lifecycle log")
	_ = fs.Parse(args)

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	if *queue == 0 {
		*queue = -1 // Config's zero value means the default depth; -1 means none
	}
	cfg := janusd.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheDir:        *cacheDir,
		DefaultDeadline: *deadline,
		DrainTimeout:    *drain,
		StallDelay:      *stall,
		Log:             logger,
	}
	if *inject != "" {
		plan, err := faultinject.ParsePlan(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "janusd:", err)
			return 2
		}
		cfg.Inject = plan
	}

	ln, inherited, err := janusd.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "janusd:", err)
		return 1
	}
	srv := janusd.New(cfg)

	// Catch the lifecycle signals before the ready line announces the
	// daemon: a SIGHUP that arrived between the two would take its
	// default action and kill the process with its requests in flight.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)

	// The ready line goes to stdout so scripts can scrape the bound
	// address (important with -addr :0) and the serving pid.
	how := "listening"
	if inherited {
		how = "resumed listener (hot restart)"
	}
	fmt.Printf("janusd: pid %d %s on %s\n", os.Getpid(), how, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	for {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "janusd:", err)
				return 1
			}
			return 0
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				pid, err := janusd.HotRestart(ln)
				if err != nil {
					// The daemon stays up: a failed hot restart must never
					// take down the serving process.
					fmt.Fprintln(os.Stderr, "janusd: hot restart failed:", err)
					continue
				}
				fmt.Printf("janusd: pid %d handing off to pid %d\n", os.Getpid(), pid)
			}
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			if err := srv.Drain(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "janusd: drain:", err)
			}
			cancel()
			fmt.Printf("janusd: pid %d exiting after drain\n", os.Getpid())
			return 0
		}
	}
}
