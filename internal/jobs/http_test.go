package jobs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// spanFlood streams a syntactically valid span upload of about size bytes
// — one 32 KiB span name after another — and counts the bytes the server
// pulls from it.
type spanFlood struct {
	spans int
	read  int64
	buf   []byte
}

func newSpanFlood(size int64) *spanFlood {
	return &spanFlood{spans: int(size >> 15), buf: []byte(`{"spans":[`)}
}

func (f *spanFlood) Read(p []byte) (int, error) {
	if len(f.buf) == 0 {
		switch {
		case f.spans > 0:
			f.buf = append(append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), 32<<10)...), `"},`...)
		case f.spans == 0:
			f.buf = []byte(`{"name":"tail"}]}`)
		default:
			return 0, io.EOF
		}
		f.spans--
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	f.read += int64(n)
	return n, nil
}

// TestRequestBodiesBounded sends bodies four times each route's bound and
// asserts the control plane answers 413 having read no more than the bound
// (plus the one byte that detects the overflow), so a rogue rank cannot
// make the manager buffer an unbounded span upload.
func TestRequestBodiesBounded(t *testing.T) {
	m, _ := startControlPlane(t)
	h := Handler(m)
	for _, tc := range []struct {
		path  string
		limit int64
	}{
		{"/v1/jobs/nope/spans", maxSpansBodyBytes},
		{"/v1/jobs/nope/heartbeat", maxControlBodyBytes},
		{"/v1/jobs", maxControlBodyBytes},
	} {
		body := newSpanFlood(4 * tc.limit)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body answered %d, want 413 (%s)", tc.path, rec.Code, rec.Body)
		}
		if body.read > tc.limit+1 {
			t.Fatalf("%s: server read %d bytes of a %d-byte bound", tc.path, body.read, tc.limit)
		}
	}

	// Undecodable bodies within the bound stay 400s.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/nope/spans", bytes.NewReader([]byte("{"))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed span upload answered %d, want 400", rec.Code)
	}
}
