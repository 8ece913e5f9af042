// Command janus-bench regenerates the paper's evaluation tables and
// figures over the synthetic workload suite:
//
//	janus-bench                          all experiments
//	janus-bench -fig 7                   one figure (6..12)
//	janus-bench -table 1                 one table (1 or 2)
//	janus-bench -jobs 4                  take benchmark rows from the
//	                                     render's one queue on 4
//	                                     goroutines (output is
//	                                     byte-identical at any value)
//	janus-bench -cache-dir .janus-cache  store build identities, rewrite
//	                                     schedules, native baselines,
//	                                     profiles and DBM results in a
//	                                     durable on-disk artifact cache;
//	                                     a warm re-run replays them
//	                                     without building a binary and
//	                                     prints hit/miss counters (total,
//	                                     then per kind) to stderr. Output
//	                                     is byte-identical with the cache
//	                                     off, cold or warm.
//
// A render in which a speculative region failed and was re-executed
// round-robin says so on stderr (stdout is unchanged by it). Every run
// ends its stderr with the free lists' counters: page blocks,
// page-table leaves, dependence tables and DBM thread records allocated
// fresh and recycled.
package main

import (
	"flag"
	"fmt"
	"os"

	"janus"
	"janus/internal/artcache"
	"janus/internal/harness"
)

func main() {
	def := harness.DefaultOptions()
	fig := flag.Int("fig", 0, "regenerate one figure (6..12); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (1 or 2); 0 = all")
	threads := flag.Int("threads", def.Threads, "guest thread count")
	jobs := flag.Int("jobs", def.Jobs, "how many goroutines take benchmark rows from the render's one queue (figure/table outputs are byte-identical at any value)")
	cacheDir := flag.String("cache-dir", "", "durable artifact cache directory (empty = off); figure/table outputs are byte-identical with the cache off, cold or warm, and the directory is safe to share between processes")
	flag.Parse()

	opts := harness.Options{
		Threads:  *threads,
		Jobs:     *jobs,
		Recovery: &harness.RecoveryLog{},
		CacheDir: *cacheDir,
		Session:  janus.NewSession(nil),
	}
	// Open the store here too: OpenShared dedups per directory, so this
	// handle observes the same counters the harness increments.
	var cache *artcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = artcache.OpenShared(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "janus-bench:", err)
			os.Exit(1)
		}
	}
	// The stderr counter lines are part of the tool's contract even when
	// a run dies partway: a failed run with a cache attached still
	// reports its hit/miss counters. flushCounters runs on every exit path
	// below; fail exits 1 with the counters flushed first. The free
	// lists' line follows, cache or not: how many page blocks and
	// dependence tables the render allocated and how many it recycled.
	flushCounters := func() {
		if cache != nil {
			st := cache.Stats()
			fmt.Fprintln(os.Stderr, "janus-bench: artcache:", st)
			// Per kind, hits/lookups and what the memory tier above the
			// store answered or computed: which stages a render read,
			// observed.
			if len(st.Kinds) > 0 {
				st = st.WithTiers(opts.Session.TierStats())
				fmt.Fprintln(os.Stderr, "janus-bench: artcache kinds:", st.KindsString())
			}
		}
		fmt.Fprintln(os.Stderr, "janus-bench: free lists:", harness.FreeListStats())
	}
	fail := func(err error) {
		flushCounters()
		fmt.Fprintln(os.Stderr, "janus-bench:", err)
		os.Exit(1)
	}
	out, err := harness.RenderAll(opts, *fig, *table)
	// Partial results: failed experiments are marked inline, healthy
	// ones render normally; print before exiting nonzero.
	fmt.Print(out)
	if opts.Recovery.ParRecoveries.Load() > 0 {
		fmt.Fprintln(os.Stderr, "janus-bench:", opts.Recovery.Summary())
	}
	if err != nil {
		fail(err)
	}
	flushCounters()
}
