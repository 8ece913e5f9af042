package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"janus"
	"janus/internal/genkern"
)

// splitmix is the seeded stream every workload draws its inputs from
// (the same generator the repository's own seeded components use).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// kernelSeeds draws k generator seeds from the run seed.
func kernelSeeds(seed uint64, k int) []uint64 {
	r := splitmix{s: seed}
	out := make([]uint64, k)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func generateKernels(seeds []uint64) ([]*genkern.Kernel, error) {
	out := make([]*genkern.Kernel, len(seeds))
	for i, s := range seeds {
		k, err := genkern.Generate(s)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// pipelineConfig is the full Janus configuration of figure 7's last
// bar, with verification against the native interpreter on.
func pipelineConfig(k *genkern.Kernel) janus.Config {
	return janus.Config{Threads: 8, UseProfile: true, UseChecks: true, Verify: true, TrainExe: k.Train}
}

// sweep parallelises every kernel once from cold memos and returns a
// digest of everything simulated: native and DBM cycles, selected
// loops and the DBM counters. Host-time changes must not move it.
func sweep(kernels []*genkern.Kernel, tr *tracer, op int) (string, error) {
	janus.ResetMemos()
	id := tr.begin("pipeline.sweep", -1, op)
	defer tr.end(id)
	h := sha256.New()
	for _, k := range kernels {
		kid := tr.begin("janus.parallelise", id, op)
		rep, err := janus.Parallelise(k.Ref, pipelineConfig(k), k.Libs...)
		tr.end(kid)
		if err != nil {
			return "", fmt.Errorf("%s: %w", k.Repro(), err)
		}
		fmt.Fprintf(h, "%s %d %d %d %+v\n", k.Name, rep.Native.Cycles, rep.DBM.Cycles, rep.Selected, rep.Stats)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestFile holds the committed sweep digest of the default seed and
// kernel count, an anchor that outlives any one process.
const digestFile = "bench/testdata/pipeline_gen.seed1.digest"

func digestLine(seed uint64, k int, digest string) string {
	return fmt.Sprintf("seed=%d kernels=%d sha256=%s", seed, k, digest)
}

// checkCommittedDigest compares the digest with the committed one when
// the committed line is for this seed and kernel count.
func checkCommittedDigest(root string, seed uint64, k int, digest string) error {
	data, err := os.ReadFile(filepath.Join(root, digestFile))
	if err != nil {
		return err
	}
	want := strings.TrimSpace(string(data))
	prefix, _, _ := strings.Cut(digestLine(seed, k, ""), "sha256=")
	if !strings.HasPrefix(want, prefix) {
		return nil
	}
	if got := digestLine(seed, k, digest); got != want {
		return fmt.Errorf("sweep digest differs from %s:\n got %s\nwant %s", digestFile, got, want)
	}
	return nil
}

// runPipeline is the pipeline_gen workload: the whole pipeline over
// many tiny generated binaries, where per-run set-up and static
// analysis dominate and steady-state dispatch does little.
func runPipeline(c *config, r *result) error {
	var tr *tracer
	if c.trace {
		tr = newTracer()
		defer c.writeTrace(tr, r)
	}
	sz := c.sizes
	seeds := kernelSeeds(c.seed, sz.kernels)

	// One set-up is what a fresh process pays before its first steady
	// sweep: generating the kernels and sweeping them once from cold.
	var setup []float64
	var kernels []*genkern.Kernel
	var first string
	for i := 0; i < sz.setupReps; i++ {
		t := startTimer()
		var err error
		if kernels, err = generateKernels(seeds); err != nil {
			return err
		}
		if first, err = sweep(kernels, nil, -1); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		setup = append(setup, t.seconds())
	}
	r.notef("pipeline digest %s", digestLine(c.seed, len(kernels), first))
	r.check(checkCommittedDigest(c.root, c.seed, len(kernels), first))

	log := timedLoop(c, tr, r, func(i int, tr *tracer) error {
		d, err := sweep(kernels, tr, i)
		if err == nil && d != first {
			err = fmt.Errorf("sweep digest %s differs from the first sweep's %s", d, first)
		}
		return err
	})
	r.endToEnd(setup, log)
	if !c.trace {
		return nil
	}
	r.set("trace.overhead_share", "share", log.overhead(), len(log.tracedDurs))
	return layerProbes(c, r, tr, probeInputs{overKernels: true})
}
