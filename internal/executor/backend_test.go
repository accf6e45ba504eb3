package executor

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// conformanceModels builds every architecture in internal/models at a
// CPU-test scale, with training heads so both inference and backprop can be
// exercised.
func conformanceModels() map[string]*graph.Model {
	mlpCfg := models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 7}
	convCfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16, WithHead: true, Seed: 7, WidthScale: 0.25}
	lenetCfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 7}
	alexCfg := models.Config{Classes: 10, Channels: 3, Height: 64, Width: 64, WithHead: true, Seed: 7, WidthScale: 0.0625}
	return map[string]*graph.Model{
		"mlp":     models.MLP(mlpCfg, 32, 16),
		"lenet":   models.LeNet(lenetCfg),
		"alexnet": models.AlexNet(alexCfg),
		"resnet8": models.ResNet(8, convCfg),
		"wrn16":   models.WideResNet(16, 1, convCfg),
	}
}

func feedsFor(m *graph.Model, batch int, seed uint64) map[string]*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	var shape []int
	for _, in := range m.Inputs {
		if in.Name == "x" {
			shape = append([]int{batch}, in.Shape[1:]...)
		}
	}
	labels := tensor.New(batch)
	for i := 0; i < batch; i++ {
		labels.Data()[i] = float32(i % 4)
	}
	return map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(rng, 0, 1, shape...),
		"labels": labels,
	}
}

func maxAbsDiff(t *testing.T, a, b *tensor.Tensor) float64 {
	t.Helper()
	if !tensor.SameShape(a, b) {
		t.Fatalf("shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	var m float64
	for i, v := range a.Data() {
		d := float64(v - b.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestParallelBackendConformance asserts the dataflow scheduler produces
// the same outputs and parameter gradients as the sequential reference on
// every model in internal/models, with and without the tensor arena. Run
// under -race in CI this also exercises the scheduler's synchronization.
func TestParallelBackendConformance(t *testing.T) {
	const tol = 1e-5
	for name, m := range conformanceModels() {
		t.Run(name, func(t *testing.T) {
			feeds := feedsFor(m, 4, 11)

			seq := MustNew(m)
			variants := map[string]*Executor{
				"parallel":       MustNew(m, WithBackend(NewParallelBackend(nil))),
				"parallel+arena": MustNew(m, WithBackend(NewParallelBackend(nil)), WithArena(tensor.NewArena())),
			}

			refOut, err := seq.Inference(context.Background(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			for vname, par := range variants {
				for pass := 0; pass < 3; pass++ { // repeat to exercise arena reuse
					got, err := par.Inference(context.Background(), feeds)
					if err != nil {
						t.Fatalf("%s: %v", vname, err)
					}
					for oname, ref := range refOut {
						g, ok := got[oname]
						if !ok {
							t.Fatalf("%s: missing output %q", vname, oname)
						}
						if d := maxAbsDiff(t, ref, g); d > tol {
							t.Fatalf("%s pass %d: output %q diverges: max |Δ| = %g", vname, pass, oname, d)
						}
					}
				}
			}

			// Gradient conformance through InferenceAndBackprop.
			if _, err := seq.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
				t.Fatal(err)
			}
			for vname, par := range variants {
				if _, err := par.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				refGrads := seq.Network().Gradients()
				gotGrads := par.Network().Gradients()
				if len(refGrads) == 0 || len(refGrads) != len(gotGrads) {
					t.Fatalf("%s: gradient count %d vs %d", vname, len(refGrads), len(gotGrads))
				}
				for i, pg := range refGrads {
					if d := maxAbsDiff(t, pg.Grad, gotGrads[i].Grad); d > tol {
						t.Fatalf("%s: gradient %q diverges: max |Δ| = %g", vname, pg.Name, d)
					}
				}
			}
		})
	}
}

// TestArenaRecyclesActivations asserts that steady-state inference through
// an arena actually reuses buffers instead of allocating fresh ones.
func TestArenaRecyclesActivations(t *testing.T) {
	ar := tensor.NewArena()
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 3})
	e := MustNew(m, WithArena(ar))
	feeds := feedsFor(m, 2, 5)
	for i := 0; i < 4; i++ {
		if _, err := e.Inference(context.Background(), feeds); err != nil {
			t.Fatal(err)
		}
	}
	st := ar.Stats()
	if st.Gets == 0 {
		t.Fatal("arena saw no allocations — operators not wired to the allocator")
	}
	if st.Hits == 0 {
		t.Fatalf("arena never recycled a buffer across %d passes (gets=%d)", 4, st.Gets)
	}
	t.Logf("arena traffic: %d gets, %d hits (%.0f%% recycled)",
		st.Gets, st.Hits, 100*float64(st.Hits)/float64(st.Gets))
}

// TestArenaInferenceBytes gates what the arena saves: a steady-state LeNet
// forward pass at batch 8 on the sequential backend must allocate at most
// 2% of the heap bytes the same pass allocates without an arena. Both
// executors run in this process, so the ratio does not depend on the host.
func TestArenaInferenceBytes(t *testing.T) {
	const passes = 20
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 3})
	feeds := feedsFor(m, 8, 5)
	ctx := context.Background()
	bytesPerPass := func(e *Executor) float64 {
		for i := 0; i < 3; i++ { // warm the arena and the reused bookkeeping
			if _, err := e.Inference(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			if _, err := e.Inference(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / passes
	}
	plain := bytesPerPass(MustNew(m))
	arena := bytesPerPass(MustNew(m, WithArena(tensor.NewArena())))
	t.Logf("bytes/pass: plain %.0f, arena %.0f (%.2f%%)", plain, arena, 100*arena/plain)
	if arena > 0.02*plain {
		t.Fatalf("arena pass allocates %.0f B, more than 2%% of the plain pass's %.0f B", arena, plain)
	}
}

// TestBackendByName covers the CLI selector.
func TestBackendByName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "sequential"}, {"sequential", "sequential"}, {"parallel", "parallel"},
	} {
		b, err := BackendByName(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != tc.want {
			t.Fatalf("BackendByName(%q) = %q", tc.in, b.Name())
		}
	}
	if _, err := BackendByName("gpu"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

// TestParallelBackendErrorPropagates asserts a missing feed surfaces as an
// error, not a hang, under the dataflow scheduler.
func TestParallelBackendErrorPropagates(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: 1}, 8)
	e := MustNew(m, WithBackend(NewParallelBackend(nil)))
	_, err := e.Inference(context.Background(), map[string]*tensor.Tensor{}) // no "x", no "labels"
	if err == nil {
		t.Fatal("expected missing-feed error")
	}
	if got := fmt.Sprint(err); got == "" {
		t.Fatal("empty error")
	}
}
