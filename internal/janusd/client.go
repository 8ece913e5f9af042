package janusd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Backoff shapes the client's retry schedule for shed (429) and
// draining (503) responses: seeded jittered exponential backoff, fully
// deterministic for a given Seed so tests can pin schedules.
type Backoff struct {
	// Base is the first retry delay; each further attempt doubles it.
	// Default 50ms.
	Base time.Duration
	// Max caps every delay, including a server-sent Retry-After.
	// Default 2s.
	Max time.Duration
	// Retries bounds retry attempts before the typed failure is
	// returned to the caller. Default 8.
	Retries int
	// Seed selects the jitter stream (splitmix64); two clients with
	// different seeds desynchronise instead of retrying in lockstep.
	Seed uint64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Retries <= 0 {
		b.Retries = 8
	}
	return b
}

// Client is the thin HTTP client the janus CLI's bench -server mode
// uses. Render retries shed/draining/transport failures with seeded
// jittered exponential backoff; every other failure kind is terminal
// and surfaces as the server's typed Response.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:7117".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Backoff shapes retries; zero fields take defaults.
	Backoff Backoff

	mu  sync.Mutex
	rng uint64
	rok bool
}

// next draws from the client's private splitmix64 stream.
func (c *Client) next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.rok {
		c.rng = c.Backoff.Seed
		c.rok = true
	}
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// delay computes the attempt-th retry delay: exponential from Base,
// capped at Max, stretched by jitter in [0.5, 1.5), and floored by the
// server's Retry-After (itself capped at Max, so a 1-second hint never
// stalls a test running with millisecond budgets).
func (c *Client) delay(attempt int, retryAfter string) time.Duration {
	b := c.Backoff.withDefaults()
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = min(ra, b.Max)
		}
	}
	jitter := 0.5 + float64(c.next()>>11)/float64(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// retryable reports whether a response kind is worth retrying.
func retryable(kind string) bool {
	return kind == KindShed || kind == KindDraining
}

// Render submits req on the synchronous endpoint and returns the
// terminal response, retrying shed/draining answers and transport
// errors (a daemon mid-hot-restart) under the Backoff schedule. The
// returned Response may still be a typed failure (deadline, panic,
// render); only transport exhaustion returns a Go error.
func (c *Client) Render(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b := c.Backoff.withDefaults()
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := c.renderOnce(ctx, body)
		switch {
		case err == nil && !retryable(res.ErrKind):
			return res, nil
		case err == nil:
			lastErr = fmt.Errorf("janusd: %s: %s", res.ErrKind, res.Err)
		default:
			lastErr = err
		}
		if attempt >= b.Retries {
			return nil, fmt.Errorf("janusd: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		ra := ""
		var sh *shedError
		if errors.As(lastErr, &sh) {
			ra = sh.retryAfter
		}
		t := time.NewTimer(c.delay(attempt, ra))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// shedError carries the server's Retry-After through the retry loop.
type shedError struct {
	kind, msg, retryAfter string
}

func (e *shedError) Error() string { return "janusd: " + e.kind + ": " + e.msg }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// renderOnce performs one POST /v1/render exchange. Retryable refusals
// come back as (nil, *shedError); terminal outcomes as a Response.
func (c *Client) renderOnce(ctx context.Context, body []byte) (*Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/render", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	payload, err := io.ReadAll(hres.Body)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode == http.StatusOK {
		res := &Response{
			ID:     hres.Header.Get("X-Janus-Job"),
			State:  StateDone,
			Output: string(payload),
		}
		res.ElapsedMS, _ = strconv.ParseInt(hres.Header.Get("X-Janus-Elapsed-Ms"), 10, 64)
		res.Recoveries, _ = strconv.ParseInt(hres.Header.Get("X-Janus-Recoveries"), 10, 64)
		res.Demoted, _ = strconv.ParseInt(hres.Header.Get("X-Janus-Demoted"), 10, 64)
		return res, nil
	}
	var res Response
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, fmt.Errorf("janusd: HTTP %d with undecodable body: %q", hres.StatusCode, payload)
	}
	if retryable(res.ErrKind) {
		return nil, &shedError{kind: res.ErrKind, msg: res.Err, retryAfter: hres.Header.Get("Retry-After")}
	}
	return &res, nil
}

// Stats fetches the daemon's /statusz snapshot (no retries).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	var st Stats
	if err := json.NewDecoder(hres.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
