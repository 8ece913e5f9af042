package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"janus/internal/genkern"
)

// fuzzCampaign is `janus fuzz`: a resumable shape-vector fuzz campaign
// over generated kernels. It breeds shapes from the corpus persisted in
// the -campaign directory, keeps the ones that cover new coverage
// cells, and graduates divergence-finding shapes into regression
// fixtures. Safe to kill -9 and re-run: the corpus directory is
// published atomically and the campaign resumes where it stopped. The
// stats line goes to stdout — also when the campaign errors mid-run —
// and a divergence exits nonzero.
func fuzzCampaign(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	dir := fs.String("campaign", "", "corpus directory the campaign persists to and resumes from (required)")
	secs := fs.Int("campaign-secs", 30, "campaign time budget in seconds")
	seed := fs.Uint64("campaign-seed", 1, "campaign decision-stream seed; a corpus dir refuses to resume under a different seed")
	plant := fs.Bool("campaign-plant", false, "plant a deliberate mis-classification in every oracle run (fuzzer self-test: the campaign must catch it, graduate a regression, and exit nonzero at the first divergence)")
	_ = fs.Parse(args)
	if *dir == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: janus fuzz -campaign CORPUSDIR [-campaign-secs N] [-campaign-seed N] [-campaign-plant]")
		os.Exit(2)
	}

	stats, err := genkern.RunCampaign(genkern.CampaignConfig{
		Dir:      *dir,
		Seed:     *seed,
		Duration: time.Duration(*secs) * time.Second,
		Plant:    *plant,
		// A planted campaign exists to prove the loop catches bugs; the
		// first graduated divergence is the proof, so stop there.
		StopOnDivergence: *plant,
		Log:              os.Stderr,
	})
	if stats != nil {
		// RunCampaign returns the stats it accumulated alongside a
		// mid-run error; the line is emitted either way.
		fmt.Println(stats)
	}
	if err != nil {
		fatal(err)
	}
	for _, d := range stats.Divergences {
		fmt.Fprintln(os.Stderr, "janus:", d.Err)
	}
	if len(stats.Divergences) > 0 {
		os.Exit(1)
	}
}
