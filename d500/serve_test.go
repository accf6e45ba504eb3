package d500

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// serveModel builds the tiny headless MLP the serving tests use.
func serveModel() *graph.Model {
	return models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
}

func serveInput(rows int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	return tensor.RandNormal(rng, 0, 1, rows, 1, 4, 4)
}

// newTestRegistry builds a registry that is closed at test cleanup.
func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close(context.Background()) })
	return reg
}

// serveOne loads m as the sole tenant "model" of a fresh registry.
func serveOne(t *testing.T, m *graph.Model, opts ...ServerOption) *Registry {
	t.Helper()
	reg := newTestRegistry(t)
	if err := reg.Load("model", ModelSpec{Version: "v1", Model: m, Options: opts}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// rejectsOptions checks that Registry.Load refuses every option set and
// installs nothing.
func rejectsOptions(t *testing.T, cases map[string][]ServerOption) {
	t.Helper()
	reg := newTestRegistry(t)
	for name, opts := range cases {
		if err := reg.Load(name, ModelSpec{Model: serveModel(), Options: opts}); err == nil {
			t.Errorf("%s: invalid option accepted", name)
		}
	}
	if ms := reg.Models(); len(ms) != 0 {
		t.Errorf("rejected specs were installed: %+v", ms)
	}
}

// TestServerOptionValidation mirrors the Session's fail-fast option
// policy: Registry.Load refuses an invalid ServerOption or a spec without
// a model.
func TestServerOptionValidation(t *testing.T) {
	rejectsOptions(t, map[string][]ServerOption{
		"batch":    {WithMaxBatch(0)},
		"linger":   {WithMaxLinger(-time.Second)},
		"replicas": {WithReplicas(0)},
		"queue":    {WithQueueDepth(0)},
		"session":  {WithSession(WithBackendName("bogus"))},
	})
	if err := newTestRegistry(t).Load("nil", ModelSpec{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil model: %v", err)
	}
}

// TestServerServesAndObserves drives concurrent requests through a fully
// configured tenant (parallel backend, arena, replicas) and checks results
// against a plain Session plus the ServeSample stream.
func TestServerServesAndObserves(t *testing.T) {
	m := serveModel()

	// Reference outputs through a plain session.
	sess, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(m); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var samples []ServeSample
	reg := serveOne(t, m,
		WithMaxBatch(4),
		WithMaxLinger(50*time.Millisecond),
		WithReplicas(2),
		WithQueueDepth(64),
		WithSession(
			WithBackend(Parallel),
			WithArena(),
			WithHook(func(e Event) {
				if s, ok := e.(ServeSample); ok {
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}
			}),
		),
	)

	const requests = 8
	inputs := make([]*tensor.Tensor, requests)
	var wg sync.WaitGroup
	got := make([]map[string]*tensor.Tensor, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		inputs[i] = serveInput(1, uint64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = reg.Infer(context.Background(), "model",
				map[string]*tensor.Tensor{"x": inputs[i]})
		}(i)
	}
	wg.Wait()
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := sess.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			g := got[i][name]
			if g == nil || !tensor.SameShape(w, g) {
				t.Fatalf("request %d output %q missing or misshapen", i, name)
			}
			for j, v := range w.Data() {
				d := float64(g.Data()[j] - v)
				if d < 0 {
					d = -d
				}
				if d > 1e-5 {
					t.Fatalf("request %d output %q diverges: %g vs %g", i, name, g.Data()[j], v)
				}
			}
		}
	}

	// Every batch is observed before its requests are answered, so the
	// samples are complete as soon as the last reply is in.
	mu.Lock()
	defer mu.Unlock()
	if len(samples) == 0 {
		t.Fatal("no ServeSample events reached the hook")
	}
	var rows int
	for _, s := range samples {
		rows += s.Rows
	}
	if rows != requests {
		t.Fatalf("ServeSample events account for %d rows, want %d", rows, requests)
	}
	st := reg.Models()[0].Stats
	if st.Requests != requests || st.Batches != uint64(len(samples)) {
		t.Fatalf("stats %+v disagree with %d observed samples", st, len(samples))
	}

	// Typed errors survive the public wrapping.
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("model", ModelSpec{Model: m}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("load after close: want ErrServerClosed, got %v", err)
	}
	if d := DefaultServerConfig(); d.MaxBatch != 8 || d.Replicas != 1 || d.PoolWorkers < 1 {
		t.Fatalf("DefaultServerConfig = %+v", d)
	}
}
