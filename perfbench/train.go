package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"deep500/d500"
	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/transport"
)

// trainMode is one training workload.
type trainMode struct {
	ranks int
	// batch is the minibatch per rank.
	batch int
	lr    float64
	model func(models.Config) *graph.Model
	// samples is the synthetic training-set size; noise is the per-pixel
	// noise around each class prototype.
	samples int
	noise   float64
}

var (
	trainLeNet = trainMode{ranks: 1, batch: 32, lr: 0.01, model: models.LeNet, samples: 2048, noise: 1.5}
	// distDSGD's MLP is sized so the allreduce is a quarter to a third of
	// the step on a 2-CPU host: 535k parameters, 2.0 MiB sent per rank per
	// step.
	distDSGD = trainMode{ranks: 2, batch: 16, lr: 0.01, samples: 2048, noise: 3,
		model: func(c models.Config) *graph.Model { return models.MLP(c, 512, 256) }}
)

const (
	// warmSteps run during set-up.
	warmSteps = 3
	// final_loss is the mean loss over the first lossStep steps, counted
	// from the first warm-up step; every run reaches lossStep, whatever
	// --seconds says. The mean over the whole budget varies about 6%
	// across seeds; the loss at its end alone varies 9-12%.
	lossStep = 64
)

// rankState is one rank's session and the tracing state its hooks read.
// Only the goroutine running the rank's step touches it during a step.
type rankState struct {
	sess    *d500.Session
	exec    *executor.Executor
	trainer *d500.Trainer
	sampler d500.Sampler
	rec     *recorder
	trace   int64
	loss    float64
	err     error
}

type trainInst struct {
	mode  trainMode
	ranks []*rankState
	world []*transport.TCPRank
	// losses is the loss of every step so far, averaged over ranks.
	losses []float64
}

func setupTrain(ctx context.Context, e env, ph *phases, mode trainMode) (instance, error) {
	t := time.Now()
	// Weights start from the zoo's fixed seed, as in serving; the data and
	// its order come from the workload seed.
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 42}
	data, _ := d500.SyntheticSplit(mode.samples, 0, cfg.Classes, []int{1, 28, 28}, mode.noise, e.seed)
	ti := &trainInst{mode: mode}
	var built []*graph.Model
	for r := 0; r < mode.ranks; r++ {
		built = append(built, mode.model(cfg))
	}
	ph.model = time.Since(t)

	t = time.Now()
	for r := 0; r < mode.ranks; r++ {
		sess, err := d500.New(d500.WithSeed(e.seed))
		if err != nil {
			return nil, err
		}
		if err := sess.Open(built[r]); err != nil {
			return nil, err
		}
		ge, err := sess.GraphExecutor()
		if err != nil {
			return nil, err
		}
		exec, ok := ge.(*executor.Executor)
		if !ok {
			return nil, fmt.Errorf("session executor is %T, not *executor.Executor", ge)
		}
		ti.ranks = append(ti.ranks, &rankState{sess: sess, exec: exec})
	}
	ph.open = time.Since(t)

	if mode.ranks > 1 {
		t = time.Now()
		world, err := transport.NewLocalWorld(mode.ranks, nil)
		if err != nil {
			return nil, err
		}
		ti.world = world
		ph.net = time.Since(t)
	}
	for r, rs := range ti.ranks {
		drv, err := rs.sess.NewDriver(d500.SGD(mode.lr))
		if err != nil {
			ti.close()
			return nil, err
		}
		var opt d500.Optimizer = drv
		if mode.ranks > 1 {
			opt = dist.NewConsistentDecentralized(drv, &timedRank{Rank: ti.world[r], rs: rs}, mpi.AllreduceRing)
			rs.sampler = dist.NewDistributedSampler(data, mode.batch, r, mode.ranks, e.seed)
		} else {
			rs.sampler = d500.ShuffleSampler(data, mode.batch, e.seed)
		}
		if rs.trainer, err = rs.sess.NewTrainer(opt, rs.sampler, nil); err != nil {
			ti.close()
			return nil, err
		}
	}

	t = time.Now()
	for i := 0; i < warmSteps; i++ {
		if err := ti.step(ctx, nil); err != nil {
			ti.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ph.warmup = time.Since(t)
	return ti, nil
}

// step runs one training step on every rank, the ranks concurrently.
func (ti *trainInst) step(ctx context.Context, rec *recorder) error {
	id := int64(len(ti.losses))
	run := func(rs *rankState) {
		start := time.Now()
		b := rs.sampler.Next()
		if b == nil {
			rs.sampler.Reset()
			b = rs.sampler.Next()
		}
		fetched := time.Now()
		rs.loss, rs.err = rs.trainer.Step(ctx, b)
		end := time.Now()
		rec.add(rs.trace, rootSpan, "", start, end, 0)
		rec.add(rs.trace, "train.data", rootSpan, start, fetched, 0)
		rec.add(rs.trace, "train.step", rootSpan, fetched, end, 0)
	}
	for r, rs := range ti.ranks {
		rs.rec, rs.trace = rec, id*int64(len(ti.ranks))+int64(r)
	}
	if len(ti.ranks) == 1 {
		run(ti.ranks[0])
	} else {
		var wg sync.WaitGroup
		for _, rs := range ti.ranks {
			wg.Add(1)
			go func(rs *rankState) {
				defer wg.Done()
				run(rs)
			}(rs)
		}
		wg.Wait()
	}
	var sum float64
	for _, rs := range ti.ranks {
		if rs.err != nil {
			return rs.err
		}
		sum += rs.loss
	}
	ti.losses = append(ti.losses, sum/float64(len(ti.ranks)))
	return nil
}

func (ti *trainInst) measure(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	if rec != nil {
		for _, rs := range ti.ranks {
			rs.exec.Events = rs.events()
		}
		defer func() {
			for _, rs := range ti.ranks {
				rs.exec.Events = nil
			}
		}()
	}
	before := ti.wireStats()
	win := &window{}
	first := len(ti.losses)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || len(ti.losses) < lossStep {
		t0 := time.Now()
		if err := ti.step(ctx, rec); err != nil {
			return nil, err
		}
		end := time.Now()
		win.lat = append(win.lat, ms(end.Sub(t0)))
		win.ends = append(win.ends, end)
	}
	n := len(win.lat)
	win.attempted = n
	win.samples = n * ti.mode.batch * len(ti.ranks)
	for i, l := range ti.losses[first:] {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			win.failed++
			win.problems = append(win.problems, fmt.Sprintf("step %d: loss %v", first+i+1, l))
		}
	}
	if len(ti.ranks) > 1 {
		if err := sameParams(ti.ranks[0].exec.Network(), ti.ranks[1].exec.Network()); err != nil {
			win.problems = append(win.problems, err.Error())
		}
		after := ti.wireStats()
		steps := float64(n * len(ti.ranks))
		win.counters = map[string]float64{
			"transport.sent_kb_per_step": float64(after.SentBytes-before.SentBytes) / 1024 / steps,
			"transport.frames_per_step":  float64(after.SentFrames-before.SentFrames) / steps,
			"transport.redials":          float64(after.Redials - before.Redials),
			"transport.dropped":          float64(after.Dropped - before.Dropped),
		}
	}
	return win, nil
}

// wireStats sums TCPRank.Stats over the ranks.
func (ti *trainInst) wireStats() transport.Stats {
	var sum transport.Stats
	for _, r := range ti.world {
		st := r.Stats()
		sum.SentBytes += st.SentBytes
		sum.SentFrames += st.SentFrames
		sum.Redials += st.Redials
		sum.Dropped += st.Dropped
	}
	return sum
}

// sameParams checks that two ranks hold bit-identical parameters, which
// DSGD with an exact allreduce guarantees.
func sameParams(a, b *executor.Network) error {
	for _, name := range a.Params() {
		ta, err := a.FetchTensor(name)
		if err != nil {
			return err
		}
		tb, err := b.FetchTensor(name)
		if err != nil {
			return fmt.Errorf("rank 1: %w", err)
		}
		da, db := ta.Data(), tb.Data()
		if len(da) != len(db) {
			return fmt.Errorf("parameter %q: %d vs %d values across ranks", name, len(da), len(db))
		}
		for i := range da {
			if math.Float32bits(da[i]) != math.Float32bits(db[i]) {
				return fmt.Errorf("parameter %q[%d] differs across ranks: %g vs %g", name, i, da[i], db[i])
			}
		}
	}
	return nil
}

func (ti *trainInst) finalLoss() (float64, error) {
	if len(ti.losses) < lossStep {
		return 0, fmt.Errorf("only %d steps ran, final_loss needs %d", len(ti.losses), lossStep)
	}
	var sum float64
	for _, l := range ti.losses[:lossStep] {
		sum += l
	}
	final := sum / lossStep
	if first := ti.losses[0]; !(final < first) {
		return final, fmt.Errorf("final_loss %v is not below the first step's loss %v", final, first)
	}
	return final, nil
}

func (ti *trainInst) close() error {
	var errs []error
	for _, r := range ti.world {
		errs = append(errs, r.Close())
	}
	return errors.Join(errs...)
}

// opSpanNames caches the forward and backward span name of each op kind.
var opSpanNames = func() map[string][2]string {
	m := map[string][2]string{}
	for _, k := range opKinds {
		m[k] = [2]string{"op." + k + ".fwd", "op." + k + ".bwd"}
	}
	return m
}()

// events are the executor hooks of a traced window: one span per pass and
// per operator, under the rank's current step.
func (rs *rankState) events() *executor.Events {
	return &executor.Events{
		AfterOp: func(n *graph.Node, d time.Duration) {
			rs.rec.addDur(rs.trace, opSpanNames[opKind(n.OpType)][0], "exec.fwd", d, 0)
		},
		AfterBackwardOp: func(n *graph.Node, d time.Duration) {
			rs.rec.addDur(rs.trace, opSpanNames[opKind(n.OpType)][1], "exec.bwd", d, 0)
		},
		AfterInference: func(d time.Duration) { rs.rec.addDur(rs.trace, "exec.fwd", "train.step", d, 0) },
		AfterBackprop:  func(d time.Duration) { rs.rec.addDur(rs.trace, "exec.bwd", "train.step", d, 0) },
	}
}

// timedRank is the rank decorator: it times every allreduce the DSGD
// optimizer makes, including the wait for the slower rank.
type timedRank struct {
	dist.Rank
	rs *rankState
}

func (t *timedRank) AllreduceSum(algo mpi.AllreduceAlgo, data []float32, simBytes int64) {
	rec := t.rs.rec
	if rec == nil {
		t.Rank.AllreduceSum(algo, data, simBytes)
		return
	}
	start := time.Now()
	t.Rank.AllreduceSum(algo, data, simBytes)
	rec.add(t.rs.trace, "dist.allreduce", "train.step", start, time.Now(), 0)
}
