package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"janus/internal/janusd"
)

// benchClient is the janusd thin-client mode: `janus bench -server URL`
// submits one render request to a running daemon and prints the bytes
// a local janus-bench run would have printed. Load-shed (429) and
// draining (503) refusals are retried with seeded jittered exponential
// backoff; terminal failures (deadline, panic, render error) exit
// nonzero with the server's typed error on stderr.
func benchClient(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:7117", "janusd base URL")
	fig := fs.Int("fig", 0, "regenerate one figure (6..12); 0 = all")
	table := fs.Int("table", 0, "regenerate one table (1 or 2); 0 = all")
	threads := fs.Int("threads", 0, "guest thread count (0 = daemon default)")
	jobs := fs.Int("jobs", 0, "concurrent benchmark rows (0 = daemon default)")
	inject := fs.String("inject", "", "region fault plan point[@every][#seed] applied inside the remote render")
	deadline := fs.Duration("deadline", 0, "per-request deadline enforced by the daemon (0 = daemon default)")
	retries := fs.Int("retries", 8, "max retries for shed/draining responses")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "base retry delay (doubles per attempt)")
	backoffMax := fs.Duration("backoff-max", 2*time.Second, "retry delay cap, including server Retry-After hints")
	seed := fs.Uint64("seed", 1, "jitter stream seed; distinct seeds desynchronise competing clients")
	timeout := fs.Duration("timeout", 0, "overall client budget including retries (0 = none)")
	_ = fs.Parse(args)

	c := &janusd.Client{
		Base: *server,
		Backoff: janusd.Backoff{
			Base:    *backoff,
			Max:     *backoffMax,
			Retries: *retries,
			Seed:    *seed,
		},
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := c.Render(ctx, janusd.Request{
		Fig:        *fig,
		Table:      *table,
		Threads:    *threads,
		Jobs:       *jobs,
		Inject:     *inject,
		DeadlineMS: deadline.Milliseconds(),
	})
	if err != nil {
		fatal(err)
	}
	if res.Failed() {
		// Partial output still lands on stdout (failed experiments carry
		// inline markers), matching local janus-bench behaviour.
		fmt.Print(res.Output)
		fmt.Fprintf(os.Stderr, "janus: %s (%s): %s\n", res.ID, res.ErrKind, res.Err)
		os.Exit(1)
	}
	fmt.Print(res.Output)
	if res.Recoveries > 0 || res.Demoted > 0 {
		fmt.Fprintf(os.Stderr, "janus: %s: %d recoveries, %d demoted\n", res.ID, res.Recoveries, res.Demoted)
	}
}
