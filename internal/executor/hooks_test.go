package executor_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/metrics"
	"deep500/internal/tensor"
)

// TestParallelHooksUnlocked runs forward hooks with no executor lock under
// the parallel backend: every hook fires once per node, and the overhead
// metric, whose AfterOp runs concurrently, records one sample per pass.
// CI runs it under -race -count=10.
func TestParallelHooksUnlocked(t *testing.T) {
	const towers, depth, passes = 6, 8, 4
	e := executor.MustNew(executor.WideModel(towers, depth),
		executor.WithBackend(executor.NewParallelBackend(nil)))
	fo := metrics.NewFrameworkOverhead()
	var before, after atomic.Int64
	ev := fo.Events()
	overheadAfterOp := ev.AfterOp
	ev.BeforeOp = func(*graph.Node) { before.Add(1) }
	ev.AfterOp = func(n *graph.Node, d time.Duration) {
		after.Add(1)
		overheadAfterOp(n, d)
	}
	e.Events = ev

	feeds := map[string]*tensor.Tensor{"x": tensor.Full(1, 2, 8)}
	for i := 0; i < passes; i++ {
		if _, err := e.Inference(context.Background(), feeds); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(passes * (towers*depth + 1))
	if got := before.Load(); got != want {
		t.Errorf("BeforeOp fired %d times, want %d", got, want)
	}
	if got := after.Load(); got != want {
		t.Errorf("AfterOp fired %d times, want %d", got, want)
	}
	if fo.Count() != passes || fo.AbsoluteSampler.Count() != passes {
		t.Errorf("overhead samples = %d/%d, want %d", fo.Count(), fo.AbsoluteSampler.Count(), passes)
	}
}
