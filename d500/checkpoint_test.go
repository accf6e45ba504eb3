package d500

import (
	"context"
	"path/filepath"
	"testing"

	"deep500/internal/models"
	"deep500/internal/tensor"
)

// TestCheckpointRoundTrip is the satellite acceptance test: train a model
// through the public API, Save it, Load it back, and require identical
// inference — including when the loaded checkpoint is served through a
// Registry.
func TestCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: 7}, 8)

	sess, err := New(WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// Save before Open is a typed failure, not a panic.
	if err := sess.Save(filepath.Join(t.TempDir(), "x.d5nx")); err == nil {
		t.Fatal("Save before Open must fail")
	}
	if err := sess.Open(m); err != nil {
		t.Fatal(err)
	}

	// A short training run mutates the parameters away from their init.
	train, _ := SyntheticSplit(64, 16, 4, []int{1, 4, 4}, 0.3, 7)
	if _, err := sess.Train(ctx, TrainConfig{
		Optimizer: SGD(0.05),
		Train:     ShuffleSampler(train, 16, 1),
		Epochs:    2,
	}); err != nil {
		t.Fatal(err)
	}

	feeds := func() map[string]*tensor.Tensor {
		rng := tensor.NewRNG(3)
		labels := tensor.New(2)
		return map[string]*tensor.Tensor{
			"x":      tensor.RandNormal(rng, 0, 1, 2, 1, 4, 4),
			"labels": labels,
		}
	}
	want, err := sess.Infer(ctx, feeds())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trained.d5nx")
	if err := sess.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Identical inference through a fresh session…
	sess2, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Open(loaded); err != nil {
		t.Fatal(err)
	}
	got, err := sess2.Infer(ctx, feeds())
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !tensor.SameShape(w, g) {
			t.Fatalf("output %q missing or misshapen after reload", name)
		}
		for i, v := range w.Data() {
			if g.Data()[i] != v {
				t.Fatalf("output %q differs after reload: %g vs %g", name, g.Data()[i], v)
			}
		}
	}

	// …and through the serving layer over the loaded checkpoint.
	served, err := serveOne(t, loaded, WithMaxBatch(1)).Infer(ctx, "model", feeds())
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := served[name]
		if g == nil || !tensor.SameShape(w, g) {
			t.Fatalf("served output %q missing or misshapen", name)
		}
		for i, v := range w.Data() {
			if g.Data()[i] != v {
				t.Fatalf("served output %q differs: %g vs %g", name, g.Data()[i], v)
			}
		}
	}

	if _, err := Load(""); err == nil {
		t.Fatal("Load of empty path must fail")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.d5nx")); err == nil {
		t.Fatal("Load of missing file must fail")
	}
}
