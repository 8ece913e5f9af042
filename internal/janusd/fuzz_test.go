package janusd

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequest feeds arbitrary request bodies through decodeRequest and
// Submit on a drained server. Submit validates a request before it
// checks the draining flag, so every body is refused and nothing
// renders: the target must never panic, and every refusal must be a
// bad request or the draining refusal.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"fig":7}`, `{"table":2,"threads":8}`, `{"fig":7,"table":1}`,
		`{"fig":99}`, `{"table":-1}`, `{"threads":65}`, `{"deadline_ms":-5}`,
		`{"inject":"scan-defeat"}`, `{"inject":"worker-panic@3#9"}`, `{"inject":"nope"}`,
		`{"jobs":4}`, `{bad json`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{Workers: 1})
	if err := s.Drain(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/render", bytes.NewReader(body))
		req, err := decodeRequest(httptest.NewRecorder(), r)
		if err != nil {
			return // handleRender answers this KindBadRequest
		}
		j, err := s.Submit(req)
		if err == nil {
			t.Fatalf("drained server admitted %+v as %s", req, j.ID)
		}
		if kind := submitFailure(err).ErrKind; kind != KindBadRequest && kind != KindDraining {
			t.Fatalf("request %+v refused as %q (%v)", req, kind, err)
		}
	})
}
