package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// HTTP front end. Registry.Handler is the serving stack's one HTTP surface
// (a single-model deployment is a registry with one tenant); it exposes the
// model lifecycle alongside inference:
//
//	POST   /v1/infer               — route to the sole model (or ?model=name)
//	POST   /v1/models/{name}/infer — route to a named model
//	PUT    /v1/models/{name}       — hot-load or atomically swap a model
//	DELETE /v1/models/{name}       — unload (drains in the background)
//	GET    /v1/models              — list loaded models with stats + signatures
//	GET    /v1/models/{name}       — one model's status
//	GET    /stats                  — aggregate counters (the Stats shape,
//	                                 plus per-model and registry sections)
//	GET    /healthz                — liveness probe
//
// A bare /v1/infer answers 404 when no model is loaded and 400 when several
// are. Unknown models answer 404; priority-shed and queue-full admissions
// 429; a PUT body that fails to decode 400. Inference errors map through
// statusFor (http.go).

// maxControlBodyBytes bounds model-lifecycle request bodies; control
// messages are tiny compared to inference payloads.
const maxControlBodyBytes = 1 << 20

// LoadRequest is the PUT /v1/models/{name} body: the version identity
// plus whatever source fields the configured LoadFunc understands (the
// d500serve loader resolves Zoo builders and checkpoint files).
type LoadRequest struct {
	// Version labels the build; defaults to the source description when
	// empty.
	Version string `json:"version"`
	// Priority is the admission priority (higher sheds lower under
	// pressure).
	Priority int `json:"priority"`
	// Zoo names a model-zoo builder to serve.
	Zoo string `json:"zoo,omitempty"`
	// Checkpoint is a checkpoint path to restore weights from.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// LoadFunc resolves a LoadRequest into a buildable ModelSpec. It is
// supplied by the embedding process (which knows about zoos, checkpoints
// and executor options); a resolution error maps to HTTP 400.
type LoadFunc func(name string, req LoadRequest) (ModelSpec, error)

// loadedResponse answers a successful PUT.
type loadedResponse struct {
	Model    string `json:"model"`
	Version  string `json:"version"`
	Priority int    `json:"priority"`
	Swapped  bool   `json:"swapped"`
}

// registryStatsJSON is the GET /stats body: the aggregate counters in the
// per-server Stats shape (for a single tenant they are that tenant's
// counters), plus the per-model list and the registry lifecycle counters.
type registryStatsJSON struct {
	Stats
	Models   []ModelStatus        `json:"models"`
	Registry registryCountersJSON `json:"registry"`
}

type registryCountersJSON struct {
	Models  int    `json:"models"`
	Loads   uint64 `json:"loads"`
	Swaps   uint64 `json:"swaps"`
	Unloads uint64 `json:"unloads"`
	Sheds   uint64 `json:"sheds"`
}

// Handler returns the registry's HTTP front end. load resolves PUT bodies
// into model specs; when nil, PUT answers 501 and the lifecycle surface
// is read-only (DELETE still works).
func (r *Registry) Handler(load LoadFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Query().Get("model")
		if name == "" {
			sole, n := r.soleModel()
			switch {
			case n == 0:
				writeError(w, http.StatusNotFound, "no models loaded")
				return
			case n > 1:
				writeError(w, http.StatusBadRequest,
					"multiple models loaded; use ?model=name or /v1/models/{name}/infer")
				return
			}
			name = sole
		}
		r.serveInfer(w, req, name)
	})
	mux.HandleFunc("POST /v1/models/{name}/infer", func(w http.ResponseWriter, req *http.Request) {
		r.serveInfer(w, req, req.PathValue("name"))
	})
	mux.HandleFunc("PUT /v1/models/{name}", func(w http.ResponseWriter, req *http.Request) {
		r.serveLoad(w, req, load)
	})
	mux.HandleFunc("DELETE /v1/models/{name}", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		if err := r.Unload(name); err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"model": name, "status": "unloading"})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]ModelStatus{"models": r.Models()})
	})
	mux.HandleFunc("GET /v1/models/{name}", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("name")
		for _, m := range r.Models() {
			if m.Name == name {
				writeJSON(w, http.StatusOK, m)
				return
			}
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("%v: %q", ErrUnknownModel, name))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		st := r.Stats()
		writeJSON(w, http.StatusOK, registryStatsJSON{
			Stats:  st.Aggregate,
			Models: r.Models(),
			Registry: registryCountersJSON{
				Models:  st.Models,
				Loads:   st.Loads,
				Swaps:   st.Swaps,
				Unloads: st.Unloads,
				Sheds:   st.Sheds,
			},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (r *Registry) serveInfer(w http.ResponseWriter, req *http.Request, name string) {
	feeds, ok := decodeFeeds(w, req)
	if !ok {
		return
	}
	ctx, capture := traceContext(req)
	outs, err := r.Infer(ctx, name, feeds)
	echoTrace(w, capture)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeOutputs(w, outs)
}

func (r *Registry) serveLoad(w http.ResponseWriter, req *http.Request, load LoadFunc) {
	if load == nil {
		writeError(w, http.StatusNotImplemented, "model loading is not enabled on this server")
		return
	}
	name := req.PathValue("name")
	var lr LoadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxControlBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding load request: "+err.Error())
		return
	}
	spec, err := load(name, lr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "resolving load request: "+err.Error())
		return
	}
	swapped, err := r.Load(name, spec)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrBadRequest):
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, loadedResponse{
		Model:    name,
		Version:  spec.Version,
		Priority: spec.Priority,
		Swapped:  swapped,
	})
}
