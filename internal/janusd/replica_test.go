package janusd

// Two daemon replicas sharing one artifact cache directory: the
// durability contract says concurrent warm runs stay byte-identical
// and never publish a corrupt entry. One replica runs in-process, the
// second is this test binary re-exec'd as a helper daemon (the same
// idiom internal/artcache's cross-process tests use), so the sharing
// really crosses a process boundary.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"janus/internal/artcache"
)

// TestHelperReplicaDaemon is not a test: re-exec'd by
// TestReplicasShareCache, it serves a daemon on a loopback port until
// the parent kills it.
func TestHelperReplicaDaemon(t *testing.T) {
	if os.Getenv("JANUSD_REPLICA_HELPER") != "1" {
		t.Skip("helper process for TestReplicasShareCache")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("REPLICA-ERR", err)
		os.Exit(1)
	}
	s := New(Config{Workers: 2, CacheDir: os.Getenv("JANUSD_REPLICA_CACHE")})
	fmt.Printf("REPLICA-ADDR %s\n", ln.Addr())
	_ = s.Serve(ln)
}

func TestReplicasShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite renders across two processes; skipped in -short")
	}
	golden, err := os.ReadFile("../harness/testdata/janus-bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Replica A, in-process, warms the shared cache with one full run in
	// a session of its own, so everything it renders is published to
	// this store.
	_, baseA, _ := startServer(t, Config{Workers: 2, CacheDir: dir})
	cA := &Client{Base: baseA}
	warm, err := cA.Render(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Output != string(golden) {
		t.Fatal("warming render differs from golden")
	}

	// Replica B: a separate OS process pointed at the same directory.
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperReplicaDaemon$", "-test.v")
	cmd.Env = append(os.Environ(),
		"JANUSD_REPLICA_HELPER=1",
		"JANUSD_REPLICA_CACHE="+dir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	var baseB string
	sc := bufio.NewScanner(stdout)
	re := regexp.MustCompile(`^REPLICA-ADDR (.+)$`)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			baseB = "http://" + m[1]
			break
		}
		if strings.HasPrefix(sc.Text(), "REPLICA-ERR") {
			t.Fatal(sc.Text())
		}
	}
	if baseB == "" {
		t.Fatal("replica B never reported its address")
	}

	// Concurrent warm runs against both replicas.
	type result struct {
		res *Response
		err error
	}
	results := make(chan result, 2)
	for _, base := range []string{baseA, baseB} {
		go func(base string) {
			c := &Client{Base: base, HTTP: longClient()}
			res, err := c.Render(context.Background(), Request{})
			results <- result{res, err}
		}(base)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent warm render: %v", r.err)
		}
		if r.res.Output != string(golden) {
			t.Fatal("concurrent warm render not byte-identical to golden")
		}
	}

	// No corrupt entries on either side. The local handle is the same
	// one the harness used (OpenShared dedups per directory); the
	// remote replica reports through statusz.
	local, err := artcache.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bad := local.Stats().BadEntries; bad != 0 {
		t.Fatalf("replica A saw %d corrupt cache entries", bad)
	}
	stB, err := (&Client{Base: baseB}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stB.CacheBad != 0 {
		t.Fatalf("replica B saw %d corrupt cache entries", stB.CacheBad)
	}
	if stB.CacheHits == 0 {
		t.Fatal("replica B never hit the shared cache — the directory was not actually shared")
	}
	// B's process rendered only against the store A warmed: statusz says
	// per kind what it replayed — plans and runs — and that it never
	// assembled a build image.
	kinds := stB.CacheKinds
	if kinds["schedule-v1"].Hits == 0 || kinds["dbm-v3"].Hits == 0 || kinds["ident-v1"].Hits == 0 {
		t.Fatalf("replica B's statusz does not show a replay per kind: %v", kinds)
	}
	if b, ok := kinds["build"]; !ok || b.Computed != 0 {
		t.Fatalf("replica B's warm render assembled %d builds, or does not count them: %v", b.Computed, kinds)
	}
	// The memory-tier counters beside them are B's whole life: it never
	// planned or executed anything, and what its concurrent requests
	// asked for twice came from memory.
	if kinds["schedule-v1"].Computed+kinds["dbm-v3"].Computed != 0 || kinds["dbm-v3"].MemHits == 0 {
		t.Fatalf("replica B's statusz shows computations, or no memory hit, on a warm store: %v", kinds)
	}
}

// longClient returns an HTTP client that tolerates full-suite renders.
func longClient() *http.Client {
	return &http.Client{Timeout: 5 * time.Minute}
}

// TestStatuszCountsOwnWork: two servers in one process on one cache
// directory, each warmed with the same figure. The store is the
// directory's, but each server's counters are its own session's: the
// first missed and computed every artifact it stored, the second
// replayed all of them from the store, missed none and computed
// nothing, and both answered the figure's repeated asks from memory
// alike.
func TestStatuszCountsOwnWork(t *testing.T) {
	dir := t.TempDir()
	var stats [2]Stats
	for i := range stats {
		_, base, _ := startServer(t, Config{Workers: 1, CacheDir: dir})
		if res, err := (&Client{Base: base}).Render(context.Background(), Request{Fig: 8}); err != nil || res.Failed() {
			t.Fatalf("server %d: %v %+v", i, err, res)
		}
		stats[i] = statusz(t, base)
	}
	first, second := stats[0].CacheKinds, stats[1].CacheKinds
	if got := second["dbm-v3"]; got.Hits != 18 || got.Misses != 0 {
		t.Errorf("the warm server's dbm-v3 reads %d hits, %d misses; want 18 hits, 0 misses", got.Hits, got.Misses)
	}
	for i, st := range stats {
		var hits, misses int64
		for _, ks := range st.CacheKinds {
			hits, misses = hits+ks.Hits, misses+ks.Misses
		}
		if st.CacheHits != hits || st.CacheMisses != misses {
			t.Errorf("server %d: %d hits, %d misses in all, %d and %d by kind", i, st.CacheHits, st.CacheMisses, hits, misses)
		}
	}
	if stats[0].CacheHits != 0 || stats[1].CacheMisses != 0 {
		t.Errorf("cold server %d hits, warm server %d misses", stats[0].CacheHits, stats[1].CacheMisses)
	}
	entries := map[string]int64{}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.art"))
	if err != nil || len(files) == 0 {
		t.Fatalf("store entries: %v, %v", files, err)
	}
	for _, f := range files {
		entries[filepath.Base(filepath.Dir(f))]++
	}
	entries["build"] = entries["ident-v1"]
	for kind, n := range entries {
		if first[kind].Computed != n {
			t.Errorf("%s: the first server computed %d, the store holds %d", kind, first[kind].Computed, n)
		}
		if second[kind].Computed != 0 {
			t.Errorf("%s: the second server computed %d on a warm store", kind, second[kind].Computed)
		}
		if kind != "build" && (first[kind].Misses != n || second[kind].Misses != 0) {
			t.Errorf("%s: the store holds %d; the cold server missed %d, the warm one %d", kind, n, first[kind].Misses, second[kind].Misses)
		}
		if second[kind].MemHits != first[kind].MemHits {
			t.Errorf("%s: memory hits %d on the second server, %d on the first", kind, second[kind].MemHits, first[kind].MemHits)
		}
	}
	if first["schedule-v1"].MemHits == 0 {
		t.Errorf("figure 8 asked for no plan twice: %v", first)
	}
}
