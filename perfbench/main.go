// Command perfbench is the repository benchmark. One run sets up one
// workload, drives it through the public d500 API for a fixed time,
// checks every output, and prints one JSON line: the end-to-end metrics,
// or with --trace 1 the per-layer metrics. Run it from the repository
// root through its build script:
//
//	bash perfbench/run.sh --workload serve_http --seed 1 --seconds 10 --trace 0
//
// The workloads and why each exists:
//
//   - serve_http: LeNet behind the handler stack d500serve mounts, over
//     loopback HTTP, open loop. HTTP, JSON and per-request overhead do
//     most of the work; batches stay small.
//   - serve_batch: the same model and server options driven straight into
//     Registry.Infer, open loop at a rate where micro-batches form. HTTP
//     and JSON do no work; batching and kernels do.
//   - train_lenet: Trainer.Step on LeNet, closed loop. The executor, ops
//     and kernels run backward passes and updates; no serving layer runs.
//   - dist_dsgd: two ranks over loopback TCP train an MLP with ring
//     allreduce DSGD, closed loop. The only workload that exercises dist
//     and transport.
//
// Layers are measured from outside the program: the benchmark times its
// own calls into public functions and reads hooks and counters the
// program already exposes (ServeSample events, executor Events, a timing
// decorator around dist.Rank, TCPRank.Stats, runtime/metrics). A traced
// run measures an untraced window and then a traced one of the same
// length; end-to-end metrics come only from untraced runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// setupReps is how many times each run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// env is what every workload's set-up receives.
type env struct {
	seed uint64
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string
}

// phases splits one set-up into the parts reported as setup.*_ms.
type phases struct{ model, open, net, warmup time.Duration }

// window is what one measured window did.
type window struct {
	attempted, failed int
	// lat is one value per operation in ms: a request from its due time to
	// its checked response, or a training step. lag is how late each
	// request was sent (open loop only).
	lat, lag []float64
	// ends holds when each operation completed.
	ends []time.Time
	// samples is training samples completed, or requests served.
	samples int
	// problems lists failed output checks; each also counts in failed.
	problems []string
	// counters are per-layer counts read from the program during the
	// window, reported as they are.
	counters map[string]float64
}

// instance is one set-up workload.
type instance interface {
	// measure drives the workload for about d. rec is nil in untraced
	// windows.
	measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error)
	// finalLoss is the quality guard reported as final_loss; the error
	// reports a failed quality check.
	finalLoss() (float64, error)
	close() error
}

type workload struct {
	name  string
	setup func(ctx context.Context, e env, ph *phases) (instance, error)
}

var workloads = []workload{
	{"serve_http", func(ctx context.Context, e env, ph *phases) (instance, error) {
		return setupServe(ctx, e, ph, serveHTTP)
	}},
	{"serve_batch", func(ctx context.Context, e env, ph *phases) (instance, error) {
		return setupServe(ctx, e, ph, serveBatch)
	}},
	{"train_lenet", func(ctx context.Context, e env, ph *phases) (instance, error) {
		return setupTrain(ctx, e, ph, trainLeNet)
	}},
	{"dist_dsgd", func(ctx context.Context, e env, ph *phases) (instance, error) {
		return setupTrain(ctx, e, ph, distDSGD)
	}},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve_http, serve_batch, train_lenet, dist_dsgd")
	seed := fs.Uint64("seed", 1, "seed every input of the run is made from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run that prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		return errors.New("want --workload NAME --seed N --seconds S (S >= 1) --trace 0|1")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	e := env{seed: *seed, dir: dir}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, w, e, d)
	} else {
		res, err = runUntraced(ctx, w, e, d)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return printResult(stdout, res)
}

// setUp sets the workload up setupReps times and keeps the last instance.
func setUp(ctx context.Context, w *workload, e env) (instance, []float64, []phases, error) {
	var (
		inst   instance
		secs   []float64
		phased []phases
	)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		var ph phases
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx, e, &ph)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		phased = append(phased, ph)
	}
	return inst, secs, phased, nil
}

// slicesPerWindow is how many slices an untraced window is cut into. Each
// end-to-end metric except setup_s is the median of its per-slice values,
// so a burst of interference from outside the process moves at most a few
// slices, not the reported value.
const slicesPerWindow = 10

func runUntraced(ctx context.Context, w *workload, e env, d time.Duration) (*result, error) {
	inst, setupSecs, _, err := setUp(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	var win *window
	_, _, slices, err := measured(d/slicesPerWindow, func() (err error) {
		win, err = inst.measure(ctx, d, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	loss, lossErr := inst.finalLoss()
	res := newResult(win, lossErr)
	perOp := float64(win.samples) / float64(len(win.lat))
	var p50s, rates, cpus, allocs, heaps []float64
	for _, sl := range slices {
		var lat []float64
		for i, end := range win.ends {
			if !end.Before(sl.start) && end.Before(sl.end) {
				lat = append(lat, win.lat[i])
			}
		}
		if len(lat) == 0 {
			continue
		}
		n := float64(len(lat))
		p50s = append(p50s, median(lat))
		rates = append(rates, n*perOp/sl.end.Sub(sl.start).Seconds())
		cpus = append(cpus, ms(sl.cpu)/n)
		allocs = append(allocs, float64(sl.allocBytes)/1024/n)
		heaps = append(heaps, float64(sl.heapPeak)/(1<<20))
	}
	res.add("setup_s", median(setupSecs), "s")
	res.add("p50_ms", median(p50s), "ms")
	res.add("samples_per_s", median(rates), "1/s")
	res.add("cpu_ms_per_op", median(cpus), "ms")
	res.add("alloc_kb_per_op", median(allocs), "KiB")
	res.add("heap_peak_mb", median(heaps), "MiB")
	res.add("final_loss", loss, "loss")
	fmt.Printf("# %s: %d ops in %d slices; whole window p50 %.4g ms, p99 %.4g ms (n=%d)\n",
		w.name, len(win.lat), len(p50s), median(win.lat), p99(win.lat), len(win.lat))
	return res, nil
}

func runTraced(ctx context.Context, w *workload, e env, d time.Duration) (*result, error) {
	inst, _, phased, err := setUp(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	// Half the time untraced, half traced, in one process on one set-up, so
	// the p50 ratio isolates what the benchmark's own tracing costs.
	half := d / 2
	base, err := inst.measure(ctx, half, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var win *window
	before, after, _, err := measured(half, func() (err error) {
		win, err = inst.measure(ctx, half, rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	_, lossErr := inst.finalLoss()
	res := newResult(win, lossErr)
	res.Attempted += base.attempted
	res.Failed += base.failed
	if len(base.problems) > 0 {
		res.Correct = false
	}
	spans := rec.snapshot()
	addLayers(res, spans, win, base)
	ops := float64(len(win.lat))
	res.add("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.rtCPUSecs-before.rtCPUSecs), "ratio")
	res.add("runtime.gc_cycles_per_kop", float64(after.gcCycles-before.gcCycles)/ops*1000, "count")
	pick := func(f func(phases) time.Duration) float64 {
		var xs []float64
		for _, ph := range phased {
			xs = append(xs, ms(f(ph)))
		}
		return median(xs)
	}
	res.add("setup.model_ms", pick(func(p phases) time.Duration { return p.model }), "ms")
	res.add("setup.open_ms", pick(func(p phases) time.Duration { return p.open }), "ms")
	res.add("setup.net_ms", pick(func(p phases) time.Duration { return p.net }), "ms")
	res.add("setup.warmup_ms", pick(func(p phases) time.Duration { return p.warmup }), "ms")
	res.add("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")

	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d spans written to %s\n", w.name, len(spans), path)
	return res, nil
}

// addLayers turns the spans and counters of a traced window into
// per-layer metrics. Times are totals divided by operations, so the
// layers' self times add up to the root's time, less the residual. A
// layer a workload does not run reads 0.
func addLayers(res *result, spans []span, win, base *window) {
	total, self := layerTimes(spans)
	var roots float64
	for _, s := range spans {
		if s.Name == rootSpan {
			roots++
		}
	}
	if roots == 0 {
		roots = 1
	}
	mean := func(d time.Duration) float64 { return ms(d) / roots }
	put := res.add

	put("load.wait_ms", mean(self["load.wait"]), "ms")
	put("serve.client_ms", mean(self["client"]), "ms")
	put("serve.http_ms", mean(self["serve.handler"]), "ms")
	put("serve.admit_ms", mean(self["serve.infer"]), "ms")
	put("serve.queue_ms", mean(total["serve.queue"]), "ms")
	put("serve.exec_ms", mean(total["serve.exec"]), "ms")
	put("exec.fwd_ms", mean(total["exec.fwd"]), "ms")
	put("exec.bwd_ms", mean(total["exec.bwd"]), "ms")
	put("exec.dispatch_ms", mean(self["exec.fwd"]+self["exec.bwd"]), "ms")
	for _, op := range opKinds {
		put("op."+op+".fwd_ms", mean(total["op."+op+".fwd"]), "ms")
		put("op."+op+".bwd_ms", mean(total["op."+op+".bwd"]), "ms")
	}
	put("train.data_ms", mean(total["train.data"]), "ms")
	put("train.update_ms", mean(self["train.step"]), "ms")
	put("dist.allreduce_ms", mean(total["dist.allreduce"]), "ms")
	if total["dist.allreduce"] > 0 {
		put("dist.compute_ms", mean(total["train.step"]-total["dist.allreduce"]), "ms")
	} else {
		put("dist.compute_ms", 0, "ms")
	}
	for _, c := range counters {
		put(c.name, win.counters[c.name], c.unit)
	}
	put("load.lag_p99_ms", 0, "ms")
	if len(win.lag) > 0 {
		put("load.lag_p99_ms", p99(win.lag), "ms")
	}
	put("load.p99_ms", p99(win.lat), "ms")
	put("load.samples", float64(len(win.lat)), "count")
	put("trace.residual_frac", residual(total, self), "ratio")
	put("trace.overhead_frac", median(win.lat)/median(base.lat)-1, "ratio")
}

// opKinds are the operator types reported on their own; every other type
// is summed under "other".
var opKinds = []string{"Conv", "Gemm", "MaxPool", "Relu", "other"}

func opKind(opType string) string {
	for _, k := range opKinds[:len(opKinds)-1] {
		if k == opType {
			return k
		}
	}
	return "other"
}

// counters are the per-layer values a window reads from the program
// rather than from spans.
var counters = []struct{ name, unit string }{
	{"serve.exec_ms_per_row", "ms"},
	{"serve.batch_rows", "rows"},
	{"transport.sent_kb_per_step", "KiB"},
	{"transport.frames_per_step", "count"},
	{"transport.redials", "count"},
	{"transport.dropped", "count"},
}

func newResult(win *window, lossErr error) *result {
	res := &result{
		Correct:   len(win.problems) == 0 && lossErr == nil,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   map[string]metric{},
	}
	for i, p := range win.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(win.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if lossErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", lossErr)
	}
	return res
}

// add records a metric. A value that is not a finite number marks the run
// incorrect and is reported as 0, since JSON has no NaN.
func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, v)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(&b, "# %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", b.String(), line)
	return err
}
