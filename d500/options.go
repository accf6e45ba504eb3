package d500

import (
	"fmt"
	"strings"

	"deep500/internal/frameworks"
	"deep500/internal/kernels"
)

// Backend selects the graph-execution strategy of a Session's executors.
type Backend int

const (
	// Sequential is the paper's reference execution model: nodes run one
	// after another in topological order on the calling goroutine.
	Sequential Backend = iota
	// Parallel is the dependency-counting dataflow scheduler: independent
	// branches of the graph execute concurrently over the shared worker
	// pool.
	Parallel
)

// String returns the canonical backend name ("sequential", "parallel").
func (b Backend) String() string {
	switch b {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// valid reports whether b is a declared Backend constant.
func (b Backend) valid() bool { return b == Sequential || b == Parallel }

// ParseBackend resolves a backend selector from a CLI flag or config
// string. Valid names: "sequential" (or ""), "parallel". Unknown names
// return an error instead of panicking, so flag validation can surface
// them before any experiment runs.
func ParseBackend(name string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "sequential":
		return Sequential, nil
	case "parallel":
		return Parallel, nil
	}
	return Sequential, fmt.Errorf("d500: unknown execution backend %q (valid: sequential, parallel)", name)
}

// Frameworks returns the names New accepts for WithFramework, reference
// first.
func Frameworks() []string {
	names := []string{"reference"}
	for _, p := range frameworks.All() {
		names = append(names, p.Name)
	}
	return names
}

// GemmAlgorithms returns the names WithGemm accepts, slowest first. The
// last entry ("packed") is the default every session uses when WithGemm is
// not given.
func GemmAlgorithms() []string {
	return []string{"naive", "blocked", "parallel", "packed"}
}

// config is the resolved Session configuration; options validate eagerly
// so New fails fast with a descriptive error.
type config struct {
	backend     Backend
	framework   string
	arena       bool
	gemm        string // canonical algorithm name, "" = registry default (packed)
	seed        uint64 // always non-zero after New (defaultSeed fallback)
	poolWorkers int
	quick       bool
	hook        Hook
	ckptEvery   int          // checkpoint cadence in steps (0 = every epoch)
	ownTrace    *TraceConfig // WithTrace: build a session-owned tracer
	tracer      *Tracer
}

// Option configures a Session at construction. Options are applied in
// order; the first error aborts New.
type Option func(*config) error

// WithBackend selects the graph-execution backend (Sequential by default).
func WithBackend(b Backend) Option {
	return func(c *config) error {
		if !b.valid() {
			return fmt.Errorf("d500: invalid backend %d (use d500.Sequential or d500.Parallel)", int(b))
		}
		c.backend = b
		return nil
	}
}

// WithBackendName is WithBackend over a string selector — the flag-friendly
// form binaries use.
func WithBackendName(name string) Option {
	return func(c *config) error {
		b, err := ParseBackend(name)
		if err != nil {
			return err
		}
		c.backend = b
		return nil
	}
}

// WithFramework selects an emulated framework profile ("tfgo", "torchgo",
// "cf2go") instead of the uninstrumented reference executor. The name is
// resolved at New: unknown frameworks error immediately.
func WithFramework(name string) Option {
	return func(c *config) error {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" || name == "reference" {
			c.framework = ""
			return nil
		}
		if _, ok := frameworks.ByName(name); !ok {
			return fmt.Errorf("d500: unknown framework backend %q (valid: %s)",
				name, strings.Join(Frameworks(), ", "))
		}
		c.framework = name
		return nil
	}
}

// WithArena routes operator output allocation through a recycling tensor
// arena: intermediate activations are returned to a buffer pool at the end
// of each pass instead of being garbage.
func WithArena() Option {
	return func(c *config) error {
		c.arena = true
		return nil
	}
}

// WithGemm selects the GEMM kernel algorithm every GEMM-backed operator of
// the session's models uses: "naive", "blocked", "parallel" or "packed"
// (see GemmAlgorithms). The empty string keeps the default, the BLIS-style
// packed register-tiled kernel. Unknown names error at New, so flag
// validation surfaces them before any model opens. (This is the -gemm flag
// of d500bench and d500train.)
func WithGemm(name string) Option {
	return func(c *config) error {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			c.gemm = ""
			return nil
		}
		if _, ok := kernels.ParseGemmAlgo(name); !ok {
			return fmt.Errorf("d500: unknown GEMM algorithm %q (valid: %s)",
				name, strings.Join(GemmAlgorithms(), ", "))
		}
		c.gemm = name
		return nil
	}
}

// WithSeed sets the seed driving every generator the session constructs
// (model init, synthetic data, benchmark problems). Zero selects the
// default seed (500), matching the benchmark suite's convention, so the
// seed recorded in benchmark reports is always the seed that ran.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		if seed == 0 {
			seed = defaultSeed
		}
		c.seed = seed
		return nil
	}
}

// defaultSeed mirrors core.Options' zero-seed convention.
const defaultSeed = 500

// WithPool gives the session a dedicated worker pool of the given size for
// the parallel scheduler and kernel fan-outs, instead of the process-wide
// shared pool. Sizes below 1 are rejected.
func WithPool(workers int) Option {
	return func(c *config) error {
		if workers < 1 {
			return fmt.Errorf("d500: WithPool requires at least 1 worker, got %d", workers)
		}
		c.poolWorkers = workers
		return nil
	}
}

// WithQuick scales benchmark problem sizes and rerun counts down so the
// full suite completes in seconds (the -quick flag of d500bench).
func WithQuick() Option {
	return func(c *config) error {
		c.quick = true
		return nil
	}
}

// WithCheckpointEvery sets the cadence, in optimization steps, of the
// asynchronous checkpoints Session.Train writes when
// TrainConfig.CheckpointPath is set: every n steps, the run's state (model
// weights, optimizer slots, sampler/RNG cursor) is snapshotted and written
// atomically in the background. Without this option a checkpointing run
// snapshots at every epoch boundary instead. See TrainConfig.CheckpointPath
// and Resume.
func WithCheckpointEvery(steps int) Option {
	return func(c *config) error {
		if steps < 1 {
			return fmt.Errorf("d500: WithCheckpointEvery requires at least 1 step, got %d", steps)
		}
		c.ckptEvery = steps
		return nil
	}
}

// WithHook installs the session's event hook: the single observation
// channel through which training steps, epoch boundaries, evaluations and
// benchmark samples are reported. Use MultiHook to fan out to several
// consumers.
func WithHook(h Hook) Option {
	return func(c *config) error {
		c.hook = h
		return nil
	}
}

// WithTrace gives the session its own span tracer configured by cfg, whose
// zero fields take the DefaultTraceConfig values: training runs, serve
// requests and per-op executor work record into a bounded flight
// recorder, and every retained trace is reported to the session hook as a
// TraceSpan event. Use WithTracer instead to share one tracer (and one
// recorder) across several components. (d500train's -trace and
// -trace-slow flags map onto this option.)
func WithTrace(cfg TraceConfig) Option {
	return func(c *config) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		c.ownTrace = &cfg
		return nil
	}
}

// WithTracer attaches a shared tracer built by NewTracer, so this
// session's spans land in the same flight recorder as the other
// components holding it (a Registry tenant, a jobs manager). Shared tracers are
// not bound to the session hook — read them via Tracer.Handler or
// Metrics.ObserveTracer. A nil tracer is rejected; omit the option to
// run untraced.
func WithTracer(t *Tracer) Option {
	return func(c *config) error {
		if t == nil {
			return fmt.Errorf("d500: WithTracer requires a non-nil tracer (omit the option to disable tracing)")
		}
		c.tracer = t
		return nil
	}
}
