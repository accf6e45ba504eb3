package executor

import (
	"time"

	"deep500/internal/graph"
)

// Events is the hook set a graph executor invokes during complex actions
// (paper §IV-D: "Events are user-specified hooks called at certain points
// during backpropagation and training"). Any field may be nil. A metric can
// implement both the metrics.TestMetric interface and populate an Events
// value, exactly as the paper suggests extending TestMetric and Event
// together.
//
// The executor takes no lock around a hook: each is called on the
// goroutine that runs the node or pass. Under ParallelBackend, BeforeOp and
// AfterOp for independent nodes may therefore run concurrently, so a hook
// that touches shared state must synchronise it itself. The pass-level
// hooks and AfterBackwardOp run on the goroutine that called the pass.
// Hooks observe a pass; they cannot end it early — cancel the pass's
// context for that.
type Events struct {
	// BeforeOp/AfterOp wrap each node execution (forward direction).
	BeforeOp func(n *graph.Node)
	AfterOp  func(n *graph.Node, d time.Duration)
	// AfterBackwardOp follows each node's backward execution.
	AfterBackwardOp func(n *graph.Node, d time.Duration)
	// BeforeInference/AfterInference wrap a whole forward pass.
	BeforeInference func()
	AfterInference  func(d time.Duration)
	// AfterBackprop follows a whole backward pass.
	AfterBackprop func(d time.Duration)
}
