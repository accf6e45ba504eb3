package executor

import (
	"context"
	"fmt"
	"sync"

	"deep500/internal/graph"
	"deep500/internal/kernels"
)

// ExecBackend is the forward-pass execution strategy of the reference
// executor. The executor prepares per-pass state (feeds, parameters,
// per-node operator bindings) and then hands the node schedule to the
// backend, which must run every node exactly once respecting data
// dependencies, via (*Executor).execNode. Two implementations ship:
// SequentialBackend, the paper's "verified yet slow" topological
// interpreter, and ParallelBackend, a dependency-counting dataflow
// scheduler over the shared kernels.Pool worker budget. Backends must
// observe ctx between node dispatches: a cancelled context aborts the pass
// and surfaces ctx.Err() from RunForward.
type ExecBackend interface {
	// Name identifies the backend ("sequential", "parallel").
	Name() string
	// RunForward executes the forward node schedule of one pass.
	RunForward(ctx context.Context, e *Executor) error
}

// BackendByName resolves a backend selector from a CLI flag or option
// string. Valid names: "sequential" (or ""), "parallel".
func BackendByName(name string) (ExecBackend, error) {
	switch name {
	case "", "sequential":
		return SequentialBackend{}, nil
	case "parallel":
		return NewParallelBackend(nil), nil
	}
	return nil, fmt.Errorf("executor: unknown backend %q (sequential, parallel)", name)
}

// SequentialBackend interprets the graph in topological order on the
// calling goroutine — the Deep500 reference execution model.
type SequentialBackend struct{}

// Name returns "sequential".
func (SequentialBackend) Name() string { return "sequential" }

// RunForward executes nodes one after another in topological order,
// checking the context before every node.
func (SequentialBackend) RunForward(ctx context.Context, e *Executor) error {
	for _, n := range e.order {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.execNode(n); err != nil {
			return err
		}
	}
	return nil
}

// ParallelBackend is a dependency-counting dataflow scheduler: every node
// whose producers have completed is dispatched onto the shared worker pool,
// so independent branches of the graph (and independent towers inside one
// layer) execute concurrently. The scheduling goroutine always participates
// in execution, and extra workers are borrowed from the pool only while
// runnable nodes exist — a chain-shaped graph therefore leaves the whole
// worker budget to the intra-operator kernels, while a wide graph spends it
// on operators instead. Operator outputs are identical to the sequential
// backend: each node still runs exactly once, and the backward pass remains
// the sequential reference.
type ParallelBackend struct {
	pool *kernels.Pool
}

// NewParallelBackend returns a dataflow backend over the given pool
// (kernels.Default when nil).
func NewParallelBackend(p *kernels.Pool) *ParallelBackend {
	if p == nil {
		p = kernels.Default
	}
	return &ParallelBackend{pool: p}
}

// Name returns "parallel".
func (b *ParallelBackend) Name() string { return "parallel" }

// schedState is the per-pass scheduler state.
type schedState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ready   []*graph.Node
	waits   map[*graph.Node]int
	running int
	stopped bool
	err     error
}

func (st *schedState) pop() *graph.Node {
	n := st.ready[len(st.ready)-1]
	st.ready = st.ready[:len(st.ready)-1]
	return n
}

// RunForward executes the schedule with dependency counting. The context
// is checked before every node dispatch: cancellation marks the scheduler
// stopped, drains in-flight work, and returns ctx.Err().
func (b *ParallelBackend) RunForward(ctx context.Context, e *Executor) error {
	deps := e.depGraph()
	st := &schedState{waits: make(map[*graph.Node]int, len(e.order))}
	st.cond = sync.NewCond(&st.mu)
	for n, w := range deps.waits {
		st.waits[n] = w
	}
	st.ready = append(st.ready, deps.roots...)

	st.mu.Lock()
	for {
		if st.stopped {
			st.ready = st.ready[:0]
		}
		if len(st.ready) > 0 {
			n := st.pop()
			st.mu.Unlock()
			b.runChain(ctx, e, deps, st, n)
			st.mu.Lock()
			continue
		}
		if st.running == 0 {
			break
		}
		st.cond.Wait()
	}
	st.mu.Unlock()
	return st.err
}

// runChain executes n, then keeps executing newly-ready successors on this
// goroutine, offloading surplus ready nodes to borrowed pool workers.
// It returns when no runnable node is available to this goroutine.
func (b *ParallelBackend) runChain(ctx context.Context, e *Executor, deps *depInfo, st *schedState, n *graph.Node) {
	for {
		st.mu.Lock()
		stopped := st.stopped
		st.mu.Unlock()
		var err error
		if !stopped {
			if err = ctx.Err(); err == nil {
				err = e.execNode(n)
			}
		}

		st.mu.Lock()
		if err != nil {
			st.stopped = true
			if st.err == nil {
				st.err = err
			}
		}
		if !st.stopped {
			for _, c := range deps.consumers[n] {
				st.waits[c]--
				if st.waits[c] == 0 {
					st.ready = append(st.ready, c)
				}
			}
		}
		// Claim our own next node first, then offload the surplus onto any
		// free pool workers.
		var next *graph.Node
		if !st.stopped && len(st.ready) > 0 {
			next = st.pop()
		}
		for !st.stopped && len(st.ready) > 0 && b.pool.TryAcquire() {
			m := st.pop()
			st.running++
			go func(m *graph.Node) {
				b.runChain(ctx, e, deps, st, m)
				st.mu.Lock()
				st.running--
				st.cond.Broadcast()
				st.mu.Unlock()
				b.pool.Release()
			}(m)
		}
		if len(st.ready) > 0 {
			// Leftover work no worker could take: wake the scheduler loop so
			// the calling goroutine can help.
			st.cond.Broadcast()
		}
		st.mu.Unlock()
		if next == nil {
			st.mu.Lock()
			st.cond.Broadcast()
			st.mu.Unlock()
			return
		}
		n = next
	}
}

// depInfo is the static dataflow structure of a model: per-node indegrees
// (number of distinct producer nodes feeding it) and consumer adjacency.
type depInfo struct {
	waits     map[*graph.Node]int
	consumers map[*graph.Node][]*graph.Node
	roots     []*graph.Node
}

// depGraph lazily builds (and caches) the dependency structure for the
// executor's schedule. The structure depends only on graph topology, which
// is immutable after construction (SetOp swaps operator implementations,
// not edges).
func (e *Executor) depGraph() *depInfo {
	e.depOnce.Do(func() {
		producer := make(map[string]*graph.Node, len(e.order)*2)
		for _, n := range e.order {
			for _, out := range n.Outputs {
				if out != "" {
					producer[out] = n
				}
			}
		}
		d := &depInfo{
			waits:     make(map[*graph.Node]int, len(e.order)),
			consumers: make(map[*graph.Node][]*graph.Node, len(e.order)),
		}
		for _, n := range e.order {
			seen := make(map[*graph.Node]bool)
			for _, in := range n.Inputs {
				if in == "" {
					continue
				}
				if p, ok := producer[in]; ok && p != n && !seen[p] {
					seen[p] = true
					d.consumers[p] = append(d.consumers[p], n)
				}
			}
			d.waits[n] = len(seen)
			if len(seen) == 0 {
				d.roots = append(d.roots, n)
			}
		}
		e.deps = d
	})
	return e.deps
}
