package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// JSON codec of the HTTP front end (Registry.Handler, registry_http.go):
// the inference wire types, feed decoding, trace-header propagation and
// the mapping of the serving error taxonomy onto status codes.
//
// Request body:  {"feeds":  {"x": {"shape": [1,1,28,28], "data": [...]}}}
// Response body: {"outputs": {"fc_9_y": {"shape": [1,10], "data": [...]}}}

// TensorJSON is the wire form of a tensor: an explicit shape plus the
// row-major float32 data.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	Feeds map[string]TensorJSON `json:"feeds"`
}

// InferResponse is the POST /v1/infer response body.
type InferResponse struct {
	Outputs map[string]TensorJSON `json:"outputs"`
}

// errorResponse is the JSON error envelope of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds /v1/infer request bodies (64 MiB of JSON is far
// beyond any sane single inference request).
const maxBodyBytes = 64 << 20

// traceContext wires trace propagation into one inference request: an
// inbound d500-trace header joins the caller's trace, and a capture slot
// lets Server.Infer report the root span it started for the request.
func traceContext(r *http.Request) (context.Context, *trace.Capture) {
	ctx := r.Context()
	if rm, ok := trace.Parse(r.Header.Get(trace.HeaderName)); ok {
		ctx = trace.ContextWithRemote(ctx, rm)
	}
	capture := &trace.Capture{}
	return trace.ContextWithCapture(ctx, capture), capture
}

// echoTrace sets the d500-trace response header from a filled capture
// slot. It must run before the response body is written; the access-log
// middleware lifts the header into its trace field, giving the
// p95-triage funnel its log→trace exemplar hop.
func echoTrace(w http.ResponseWriter, capture *trace.Capture) {
	if capture.Trace != 0 {
		w.Header().Set(trace.HeaderName, trace.Format(capture.Trace, capture.Span))
	}
}

// decodeFeeds parses and validates an InferRequest body, writing the 400
// response itself on failure (second result false).
func decodeFeeds(w http.ResponseWriter, r *http.Request) (map[string]*tensor.Tensor, bool) {
	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	feeds := make(map[string]*tensor.Tensor, len(req.Feeds))
	for name, tj := range req.Feeds {
		if len(tj.Data) != tensor.Volume(tj.Shape) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("feed %q: %d data values do not fill shape %v", name, len(tj.Data), tj.Shape))
			return nil, false
		}
		for _, d := range tj.Shape {
			if d < 0 {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("feed %q: negative dimension in shape %v", name, tj.Shape))
				return nil, false
			}
		}
		feeds[name] = tensor.From(tj.Data, tj.Shape...)
	}
	return feeds, true
}

func writeOutputs(w http.ResponseWriter, outs map[string]*tensor.Tensor) {
	resp := InferResponse{Outputs: make(map[string]TensorJSON, len(outs))}
	for name, t := range outs {
		resp.Outputs[name] = TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor maps the serving error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrReplicaCrash):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// statusClientClosedRequest is nginx's non-standard 499 (client closed
// request): the caller went away while the request was queued.
const statusClientClosedRequest = 499

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
